//! Compression statistics: everything the paper's evaluation plots need.
//!
//! - Selection rates of the three prediction models (paper Fig. 6);
//! - leading-zero-class distribution of residuals (paper Fig. 5b);
//! - byte counts for compression-ratio reporting (Tables 2–3).

/// Which prediction model produced a value (aggregated for Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelClass {
    /// Temporal prediction from the adjacent-timestep matrix.
    Temporal,
    /// Matrix-stamp (spatial) prediction.
    Stamp,
    /// Last-value prediction within the current matrix.
    LastValue,
}

/// Statistics accumulated while compressing one matrix or a whole tensor.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompressStats {
    /// Values predicted by the temporal model.
    pub temporal: u64,
    /// Values predicted by the stamp-based spatial model.
    pub stamp: u64,
    /// Values predicted by the last-value model.
    pub last_value: u64,
    /// Residuals that were exactly zero (the paper's "64 consecutive zero
    /// bits" bucket, ~60 %).
    pub zero_residuals: u64,
    /// Histogram of 8-bit leading-zero classes for non-zero residuals
    /// (index = class 0‥7).
    pub lz_class_histogram: [u64; 8],
    /// Residuals that reused the previous residual's window.
    pub shared_windows: u64,
    /// Uncompressed value bytes seen.
    pub input_bytes: u64,
    /// Compressed bytes produced.
    pub output_bytes: u64,
    /// Values encoded in Markov mode (no selection bits).
    pub markov_predicted: u64,
}

impl CompressStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one model selection.
    pub fn record_selection(&mut self, class: ModelClass) {
        match class {
            ModelClass::Temporal => self.temporal += 1,
            ModelClass::Stamp => self.stamp += 1,
            ModelClass::LastValue => self.last_value += 1,
        }
    }

    /// Total values processed.
    pub fn total_values(&self) -> u64 {
        self.temporal + self.stamp + self.last_value
    }

    /// Selection rate of a model in `[0, 1]` (Fig. 6's y-axis).
    pub fn selection_rate(&self, class: ModelClass) -> f64 {
        let total = self.total_values();
        if total == 0 {
            return 0.0;
        }
        let count = match class {
            ModelClass::Temporal => self.temporal,
            ModelClass::Stamp => self.stamp,
            ModelClass::LastValue => self.last_value,
        };
        count as f64 / total as f64
    }

    /// Fraction of residuals that were all-zero (Fig. 5b's tall bar).
    pub fn zero_residual_rate(&self) -> f64 {
        let total = self.total_values();
        if total == 0 {
            return 0.0;
        }
        self.zero_residuals as f64 / total as f64
    }

    /// Compression ratio `input/output`.
    pub fn ratio(&self) -> f64 {
        if self.output_bytes == 0 {
            return 0.0;
        }
        self.input_bytes as f64 / self.output_bytes as f64
    }

    /// Merges another stats block into this one.
    pub fn merge(&mut self, other: &CompressStats) {
        self.temporal += other.temporal;
        self.stamp += other.stamp;
        self.last_value += other.last_value;
        self.zero_residuals += other.zero_residuals;
        for (a, b) in self
            .lz_class_histogram
            .iter_mut()
            .zip(&other.lz_class_histogram)
        {
            *a += b;
        }
        self.shared_windows += other.shared_windows;
        self.input_bytes += other.input_bytes;
        self.output_bytes += other.output_bytes;
        self.markov_predicted += other.markov_predicted;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_rates_sum_to_one() {
        let mut s = CompressStats::new();
        for _ in 0..6 {
            s.record_selection(ModelClass::Temporal);
        }
        for _ in 0..3 {
            s.record_selection(ModelClass::Stamp);
        }
        s.record_selection(ModelClass::LastValue);
        assert_eq!(s.total_values(), 10);
        let sum = s.selection_rate(ModelClass::Temporal)
            + s.selection_rate(ModelClass::Stamp)
            + s.selection_rate(ModelClass::LastValue);
        assert!((sum - 1.0).abs() < 1e-12);
        assert!((s.selection_rate(ModelClass::Temporal) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = CompressStats::new();
        assert_eq!(s.selection_rate(ModelClass::Temporal), 0.0);
        assert_eq!(s.zero_residual_rate(), 0.0);
        assert_eq!(s.ratio(), 0.0);
    }

    #[test]
    fn merge_accumulates_everything() {
        let mut a = CompressStats {
            temporal: 1,
            zero_residuals: 2,
            input_bytes: 100,
            output_bytes: 10,
            ..CompressStats::default()
        };
        a.lz_class_histogram[3] = 5;
        let mut b = CompressStats {
            stamp: 4,
            shared_windows: 7,
            input_bytes: 50,
            output_bytes: 5,
            ..CompressStats::default()
        };
        b.lz_class_histogram[3] = 2;
        a.merge(&b);
        assert_eq!(a.temporal, 1);
        assert_eq!(a.stamp, 4);
        assert_eq!(a.lz_class_histogram[3], 7);
        assert_eq!(a.input_bytes, 150);
        assert!((a.ratio() - 10.0).abs() < 1e-12);
    }
}
