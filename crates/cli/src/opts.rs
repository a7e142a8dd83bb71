//! Tiny flag parser shared by the subcommands.

use std::collections::HashMap;

use crate::CliError;

/// Parsed positional arguments and `--flag value` options.
#[derive(Debug)]
pub struct Opts {
    positional: Vec<String>,
    flags: HashMap<String, String>,
}

impl Opts {
    /// Splits `args` into positionals and flag/value pairs, rejecting
    /// flags outside `allowed`.
    pub fn parse(args: &[String], allowed: &[&str]) -> Result<Self, CliError> {
        let mut positional = Vec::new();
        let mut flags = HashMap::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                if !allowed.contains(&name) {
                    return Err(CliError::usage(format!("unknown flag `--{name}`")));
                }
                let value = it
                    .next()
                    .ok_or_else(|| CliError::usage(format!("missing value for `--{name}`")))?;
                if flags.insert(name.to_string(), value.clone()).is_some() {
                    return Err(CliError::usage(format!("duplicate flag `--{name}`")));
                }
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Self { positional, flags })
    }

    /// The `i`-th positional argument.
    pub fn positional(&self, i: usize, name: &str) -> Result<&str, CliError> {
        self.positional
            .get(i)
            .map(|s| s.as_str())
            .ok_or_else(|| CliError::usage(format!("missing <{name}> argument")))
    }

    /// Number of positional arguments.
    pub fn num_positional(&self) -> usize {
        self.positional.len()
    }

    /// An optional string flag.
    pub fn flag(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(|s| s.as_str())
    }

    /// A required string flag.
    pub fn required(&self, name: &str) -> Result<&str, CliError> {
        self.flag(name).ok_or_else(|| CliError::usage(format!("missing required `--{name}`")))
    }

    /// An optional parsed flag.
    pub fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, CliError> {
        self.flag(name)
            .map(|v| {
                v.parse().map_err(|_| CliError::usage(format!("cannot parse `--{name} {v}`")))
            })
            .transpose()
    }

    /// An optional parsed flag with a default.
    pub fn parsed_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        Ok(self.parsed(name)?.unwrap_or(default))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_mixed_args() {
        let o = Opts::parse(&sv(&["file.pcn", "--seed", "7", "out.json"]), &["seed"]).unwrap();
        assert_eq!(o.positional(0, "input").unwrap(), "file.pcn");
        assert_eq!(o.positional(1, "output").unwrap(), "out.json");
        assert_eq!(o.num_positional(), 2);
        assert_eq!(o.parsed_or::<u64>("seed", 0).unwrap(), 7);
        assert_eq!(o.parsed_or::<u64>("other", 9).unwrap(), 9);
    }

    #[test]
    fn rejects_unknown_duplicate_and_malformed() {
        assert!(Opts::parse(&sv(&["--bogus", "1"]), &["seed"]).is_err());
        assert!(Opts::parse(&sv(&["--seed"]), &["seed"]).is_err());
        assert!(Opts::parse(&sv(&["--seed", "1", "--seed", "2"]), &["seed"]).is_err());
        let o = Opts::parse(&sv(&["--seed", "abc"]), &["seed"]).unwrap();
        assert!(o.parsed_or::<u64>("seed", 0).is_err());
        assert!(o.positional(0, "input").is_err());
        assert!(o.required("missing").is_err());
    }
}
