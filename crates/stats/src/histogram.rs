//! Counting integer-valued observations: Fig. 11's
//! rows-by-erroneous-word-count bars.

/// Counts occurrences of integer-valued observations, returning
/// `(value, count)` pairs in ascending order of value.
///
/// This is the exact form of Fig. 11: "number of 64-bit data words with one
/// bit flip in a DRAM row" on the x-axis against row counts.
pub fn integer_counts(values: &[u64]) -> Vec<(u64, u64)> {
    let mut map = std::collections::BTreeMap::new();
    for &v in values {
        *map.entry(v).or_insert(0u64) += 1;
    }
    map.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_counts_orders_and_counts() {
        let counts = integer_counts(&[4, 1, 4, 116, 1, 1]);
        assert_eq!(counts, vec![(1, 3), (4, 2), (116, 1)]);
        assert!(integer_counts(&[]).is_empty());
    }
}
