//! Order statistics and seed derivation shared by the load generator,
//! the layer replay and the report.

use rlwe_hash::Sha256;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `v` by nearest rank, or 0 when `v`
/// is empty. Sorts `v` in place.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let idx = ((v.len() - 1) as f64 * q).round() as usize;
    v[idx]
}

/// The median of `v` (0 when empty). Sorts `v` in place.
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// The arithmetic mean of `v` (0 when empty).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// A 32-byte seed for one consumer of the workload seed:
/// `SHA-256("perfbench/" ‖ label ‖ seed ‖ a ‖ b)`. Every input the
/// benchmark generates (server key, client handshake coins, payloads)
/// comes from here, so one `--seed` fixes them all.
pub fn derive_seed(seed: u64, label: &str, a: u64, b: u64) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(b"perfbench/");
    h.update(label.as_bytes());
    h.update(&seed.to_le_bytes());
    h.update(&a.to_le_bytes());
    h.update(&b.to_le_bytes());
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let mut v = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&mut v), 3.0);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 5.0);
        assert_eq!(median(&mut []), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn derived_seeds_separate_labels_and_indices() {
        assert_eq!(derive_seed(1, "a", 0, 0), derive_seed(1, "a", 0, 0));
        assert_ne!(derive_seed(1, "a", 0, 0), derive_seed(2, "a", 0, 0));
        assert_ne!(derive_seed(1, "a", 0, 0), derive_seed(1, "b", 0, 0));
        assert_ne!(derive_seed(1, "a", 0, 1), derive_seed(1, "a", 1, 0));
    }
}
