//! The option parser `repro` shares across every artifact.

/// Benchmark-scale presets: which Table 3 applications a run includes,
/// by cluster count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// ≤ 256 clusters (DNN_65K, CNN_65K, LeNets, AlexNet).
    Small,
    /// ≤ 8192 clusters (adds DNN_16M, CNN_16M, MobileNet, InceptionV3,
    /// ResNet) — the default.
    Medium,
    /// ≤ 65 536 clusters (adds DNN_268M, CNN_268M).
    Large,
    /// Everything including DNN_4B (1 M clusters).
    Full,
}

impl Scale {
    /// Maximum cluster count included at this scale.
    pub fn max_clusters(&self) -> u64 {
        match self {
            Scale::Small => 256,
            Scale::Medium => 8_192,
            Scale::Large => 65_536,
            Scale::Full => u64::MAX,
        }
    }
}

/// Parsed common options.
#[derive(Debug, Clone)]
pub struct Options {
    /// `--scale small|medium|large|full` (default medium).
    pub scale: Scale,
    /// `--budget-secs N`: wall-clock cap per baseline run (default 120).
    pub budget_secs: u64,
    /// `--seed N` (default 42).
    pub seed: u64,
    /// `--json PATH`: also dump machine-readable results.
    pub json: Option<std::path::PathBuf>,
    /// `--sample N`: congestion edge-sample cap (default 200 000).
    pub congestion_sample: u64,
    /// `--threads N`: worker threads for the proposed mapper (default 0 =
    /// auto; the placement is bit-identical for every value).
    pub threads: usize,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            scale: Scale::Medium,
            budget_secs: 120,
            seed: 42,
            json: None,
            congestion_sample: 200_000,
            threads: 0,
        }
    }
}

impl Options {
    /// Parses `--flag value` pairs in argument order.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for the first unknown, repeated,
    /// valueless or malformed flag.
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut opts = Options::default();
        let mut seen = Vec::new();
        while let Some(flag) = args.next() {
            if seen.contains(&flag) {
                return Err(format!("repeated flag `{flag}`"));
            }
            let value = args.next().ok_or_else(|| format!("missing value for {flag}"))?;
            let bad = || format!("bad {flag} `{value}`");
            match flag.as_str() {
                "--scale" => {
                    opts.scale = match value.as_str() {
                        "small" => Scale::Small,
                        "medium" => Scale::Medium,
                        "large" => Scale::Large,
                        "full" => Scale::Full,
                        other => return Err(format!("unknown scale `{other}`")),
                    }
                }
                "--budget-secs" => opts.budget_secs = value.parse().map_err(|_| bad())?,
                "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
                "--sample" => opts.congestion_sample = value.parse().map_err(|_| bad())?,
                "--threads" => opts.threads = value.parse().map_err(|_| bad())?,
                "--json" => opts.json = Some(value.into()),
                other => return Err(format!("unknown flag `{other}`")),
            }
            seen.push(flag);
        }
        Ok(opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        Options::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.scale, Scale::Medium);
        assert_eq!(o.budget_secs, 120);
        assert_eq!(o.seed, 42);
        assert_eq!(o.threads, 0);
    }

    #[test]
    fn parses_all_flags() {
        let o = parse(&[
            "--scale", "full", "--budget-secs", "5", "--seed", "7", "--json", "/tmp/x.json",
            "--sample", "100", "--threads", "4",
        ])
        .unwrap();
        assert_eq!(o.scale, Scale::Full);
        assert_eq!(o.budget_secs, 5);
        assert_eq!(o.seed, 7);
        assert_eq!(o.congestion_sample, 100);
        assert_eq!(o.threads, 4);
        assert!(o.json.is_some());
    }

    #[test]
    fn rejects_unknown_and_malformed() {
        assert!(parse(&["--bogus", "1"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seed", "abc"]).is_err());
        assert!(parse(&["--scale", "tiny"]).is_err());
        assert_eq!(parse(&["--seed", "1", "--seed", "2"]).unwrap_err(), "repeated flag `--seed`");
        // With two bad flags, the first one in argument order is reported.
        assert_eq!(parse(&["--seed", "x", "--bogus", "1"]).unwrap_err(), "bad --seed `x`");
        assert_eq!(parse(&["--bogus", "1", "--seed", "x"]).unwrap_err(), "unknown flag `--bogus`");
    }

    #[test]
    fn scale_thresholds() {
        assert_eq!(Scale::Small.max_clusters(), 256);
        assert!(Scale::Full.max_clusters() > 1_000_000);
    }
}
