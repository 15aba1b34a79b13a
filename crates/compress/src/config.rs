//! Compressor configuration.

/// Knobs of the MASC compressor.
///
/// The defaults match the paper's "MASC w/ Markov" configuration; use
/// [`MascConfig::with_markov`]`(false)` for the higher-ratio, slower
/// "MASC w/o Markov" variant of paper Table 3.
#[derive(Debug, Clone, PartialEq)]
pub struct MascConfig {
    /// Predict model selections with the per-matrix Markov model instead
    /// of writing 1–2 selection bits per value.
    pub markov: bool,
    /// Fraction of each region encoded best-fit to train the Markov table.
    pub markov_warmup_frac: f64,
    /// Minimum warm-up length per region (small matrices train poorly on
    /// pure fractions).
    pub markov_min_warmup: usize,
    /// Negate diagonal values when used as spatial predictors for
    /// off-diagonal elements (the paper's sign-bit inversion; eq. 6).
    pub sign_invert_diag: bool,
    /// Embed a 64-bit integrity checksum per matrix.
    pub checksum: bool,
    /// Values per chunk; each chunk is encoded independently (own residual
    /// window, own Markov warm-up). Written into every stream, and the
    /// decoder obeys the stream's value.
    pub chunk_size: usize,
}

impl Default for MascConfig {
    fn default() -> Self {
        Self {
            markov: true,
            markov_warmup_frac: 0.125,
            markov_min_warmup: 256,
            sign_invert_diag: true,
            checksum: true,
            chunk_size: 1 << 16,
        }
    }
}

impl MascConfig {
    /// Default configuration ("MASC w/ Markov").
    pub fn new() -> Self {
        Self::default()
    }

    /// Toggles Markov selection prediction.
    pub fn with_markov(mut self, markov: bool) -> Self {
        self.markov = markov;
        self
    }

    /// Toggles diagonal sign inversion (ablation knob).
    pub fn with_sign_invert(mut self, on: bool) -> Self {
        self.sign_invert_diag = on;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_markov_variant() {
        let c = MascConfig::default();
        assert!(c.markov);
        assert!(c.sign_invert_diag);
        assert!(c.checksum);
        assert_eq!(c.chunk_size, 1 << 16);
    }

    #[test]
    fn builders_compose() {
        let c = MascConfig::new().with_markov(false).with_sign_invert(false);
        assert!(!c.markov);
        assert!(!c.sign_invert_diag);
    }
}
