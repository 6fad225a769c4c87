//! The manufacturing-control workload (section 1 of the paper):
//!
//! > "Hundreds of work cells distributed throughout a factory communicate
//! > with production monitoring and inventory control stations.
//! > Consistency and reliability are important here."
//!
//! Work cells consume parts and produce assemblies; every production step
//! is a distributed transaction over the partitioned inventory (parts live
//! in different leaf subgroups). The invariant checked by experiment E10
//! is *conservation*: for every committed build of one unit,
//! `part_a -= 1`, `part_b -= 1`, `product += 1`, so
//! `initial_parts - remaining_parts == products × parts_per_product`
//! must hold exactly, whatever crashes occur.

/// Inventory schema of the synthetic factory.
#[derive(Clone, Debug)]
pub struct Recipe {
    /// Number of distinct part types.
    pub part_types: usize,
    /// Initial stock per part type.
    pub initial_stock: i64,
}

impl Recipe {
    /// Key of part type `i`.
    pub fn part_key(&self, i: usize) -> String {
        format!("part{}", i % self.part_types)
    }

    /// Key of the finished-product counter for work cell `c`'s line.
    pub fn product_key(line: usize) -> String {
        format!("product{line}")
    }

    /// The transactional writes for "cell on `line` builds one unit out of
    /// parts `a` and `b`" — numeric deltas, applied under 2PC locks.
    pub fn build_writes(&self, line: usize, a: usize, b: usize) -> Vec<(String, String)> {
        vec![
            (self.part_key(a), "-1".into()),
            (self.part_key(b), "-1".into()),
            (Recipe::product_key(line), "+1".into()),
        ]
    }

    /// Seed writes establishing the initial stock.
    pub fn seed_writes(&self) -> Vec<(String, String)> {
        (0..self.part_types)
            .map(|i| (self.part_key(i), self.initial_stock.to_string()))
            .collect()
    }
}

/// Results of a factory run.
#[derive(Clone, Debug)]
pub struct FactoryReport {
    /// Work cells participating.
    pub cells: usize,
    /// Transactions attempted / committed / aborted.
    pub attempts: u64,
    pub committed: u64,
    pub aborted: u64,
    /// Unresolved at the end of the run (in-flight when it stopped).
    pub unresolved: u64,
    /// Whether the conservation invariant held exactly.
    pub conserved: bool,
    /// Parts consumed according to the inventory vs products built.
    pub parts_consumed: i64,
    pub products_built: i64,
    /// Commit availability: committed / resolved.
    pub availability: f64,
    /// Messages sent during the measurement window.
    pub messages: u64,
}

/// Checks conservation given the final inventory readings.
///
/// `remaining[i]` is the final stock of part type `i`; `products` the sum
/// of all product counters. Each product consumes exactly two parts.
pub fn conservation_holds(recipe: &Recipe, remaining: &[i64], products: i64) -> bool {
    let initial: i64 = recipe.initial_stock * recipe.part_types as i64;
    let left: i64 = remaining.iter().sum();
    initial - left == 2 * products
}

/// Deterministic work-cell schedule: which parts cell `c` uses for its
/// `k`-th build. Spread so that concurrent cells often conflict on shared
/// part types (exercising the 2PC abort path).
pub fn pick_parts(cell: usize, k: u64, part_types: usize) -> (usize, usize) {
    let a = (cell as u64 + k).wrapping_mul(2_654_435_761) as usize % part_types;
    let b = (a + 1 + (k as usize % (part_types - 1).max(1))) % part_types;
    (a, b)
}

/// Convenience: keys read back to audit the final inventory.
pub fn audit_keys(recipe: &Recipe, lines: usize) -> (Vec<String>, Vec<String>) {
    (
        (0..recipe.part_types).map(|i| recipe.part_key(i)).collect(),
        (0..lines).map(Recipe::product_key).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recipe() -> Recipe {
        Recipe {
            part_types: 8,
            initial_stock: 1_000,
        }
    }

    #[test]
    fn build_writes_are_conserving_deltas() {
        let r = recipe();
        let w = r.build_writes(3, 1, 2);
        assert_eq!(w.len(), 3);
        assert_eq!(w[0], ("part1".to_string(), "-1".to_string()));
        assert_eq!(w[2], ("product3".to_string(), "+1".to_string()));
    }

    #[test]
    fn conservation_check() {
        let r = recipe();
        // 10 products consumed 20 parts.
        let mut remaining = vec![1_000i64; 8];
        remaining[0] -= 12;
        remaining[1] -= 8;
        assert!(conservation_holds(&r, &remaining, 10));
        assert!(!conservation_holds(&r, &remaining, 11));
    }

    #[test]
    fn part_picks_are_distinct_and_in_range() {
        for c in 0..20 {
            for k in 0..50 {
                let (a, b) = pick_parts(c, k, 8);
                assert!(a < 8 && b < 8);
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn seed_covers_every_part() {
        let r = recipe();
        assert_eq!(r.seed_writes().len(), 8);
    }
}
