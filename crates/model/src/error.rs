//! Error type for model construction and partitioning.

use std::error::Error;
use std::fmt;

/// Errors produced by the application-model layer.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ModelError {
    /// A network or layer graph had no neurons.
    EmptyNetwork,
    /// A synapse referenced a neuron id outside the network.
    InvalidSynapse {
        /// Source neuron id.
        from: u32,
        /// Target neuron id.
        to: u32,
        /// Number of neurons in the network.
        neurons: u32,
    },
    /// A synapse weight (spike density) was non-finite or negative.
    InvalidWeight {
        /// The offending weight.
        weight: f32,
    },
    /// A layer-graph connection referenced a nonexistent layer or went
    /// backwards/self-wards.
    InvalidConnection {
        /// Source layer index.
        from: usize,
        /// Target layer index.
        to: usize,
        /// Number of layers.
        layers: usize,
    },
    /// A layer chain needs at least two layers.
    TooFewLayers {
        /// Layers given.
        layers: usize,
    },
    /// A layer declared zero neurons.
    EmptyLayer {
        /// Index of the empty layer.
        index: usize,
    },
    /// A spec's per-neuron fan-in was zero or exceeded its narrowest
    /// source layer.
    InvalidFanIn {
        /// Requested fan-in.
        fan_in: u64,
        /// Largest valid fan-in for the spec.
        max: u64,
    },
    /// An average degree / fan-out was negative or non-finite.
    InvalidDegree {
        /// The offending value.
        degree: f64,
    },
    /// A window connection's fan-in exceeds the source layer size.
    FanInTooLarge {
        /// Requested fan-in.
        fan_in: u64,
        /// Source layer size.
        layer: u64,
    },
    /// Materializing this graph would create more synapses than the
    /// configured safety limit (the Table 3 giants are analytic-only).
    TooLargeToMaterialize {
        /// Synapses the graph would need.
        synapses: u64,
        /// Configured limit.
        limit: u64,
    },
    /// The network is too large for explicit `u32` neuron ids; use the
    /// analytic layer-graph path instead.
    TooManyNeurons {
        /// Requested neuron count.
        neurons: u64,
    },
    /// A cluster graph's out-CSR was not canonical (see
    /// [`crate::Pcn::from_out_csr`]).
    InvalidCsr {
        /// What was wrong, naming the offending row or edge.
        message: String,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::EmptyNetwork => write!(f, "network has no neurons"),
            ModelError::InvalidSynapse { from, to, neurons } => {
                write!(f, "synapse {from} -> {to} outside network of {neurons} neurons")
            }
            ModelError::InvalidWeight { weight } => {
                write!(f, "synapse weight {weight} is not a finite nonnegative spike density")
            }
            ModelError::InvalidConnection { from, to, layers } => {
                write!(f, "connection {from} -> {to} invalid for {layers} layers")
            }
            ModelError::TooFewLayers { layers } => {
                write!(f, "a layer chain needs at least two layers, got {layers}")
            }
            ModelError::EmptyLayer { index } => {
                write!(f, "layer {index} has no neurons")
            }
            ModelError::InvalidFanIn { fan_in, max } => {
                write!(f, "fan-in {fan_in} must be in 1..={max}")
            }
            ModelError::InvalidDegree { degree } => {
                write!(f, "average degree {degree} is not a finite nonnegative number")
            }
            ModelError::FanInTooLarge { fan_in, layer } => {
                write!(f, "window fan-in {fan_in} exceeds source layer of {layer} neurons")
            }
            ModelError::TooLargeToMaterialize { synapses, limit } => {
                write!(f, "{synapses} synapses exceed the materialization limit of {limit}")
            }
            ModelError::TooManyNeurons { neurons } => {
                write!(f, "{neurons} neurons exceed explicit u32 representation")
            }
            ModelError::InvalidCsr { message } => write!(f, "non-canonical CSR: {message}"),
        }
    }
}

impl Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        let errs = [
            ModelError::EmptyNetwork,
            ModelError::InvalidSynapse { from: 1, to: 9, neurons: 5 },
            ModelError::InvalidWeight { weight: f32::NAN },
            ModelError::InvalidConnection { from: 2, to: 2, layers: 3 },
            ModelError::TooFewLayers { layers: 1 },
            ModelError::EmptyLayer { index: 2 },
            ModelError::InvalidFanIn { fan_in: 0, max: 8 },
            ModelError::InvalidDegree { degree: f64::NAN },
            ModelError::FanInTooLarge { fan_in: 10, layer: 5 },
            ModelError::TooLargeToMaterialize { synapses: 1 << 40, limit: 1 << 30 },
            ModelError::TooManyNeurons { neurons: 1 << 33 },
            ModelError::InvalidCsr { message: "offsets must be monotone".into() },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn is_std_error() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<ModelError>();
    }
}
