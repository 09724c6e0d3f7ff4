//! Collection strategies: `vec`, `btree_set`, `btree_map`.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use crate::strategy::Strategy;
use crate::Gen;

/// Strategy producing a `Vec` of `element` values with a length drawn from
/// `size`.
pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
    VecStrategy { element, size }
}

/// Output of [`vec()`].
#[derive(Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, g: &mut Gen) -> Vec<S::Value> {
        let len = g.usize_in(self.size.start, self.size.end);
        (0..len).map(|_| self.element.generate(g)).collect()
    }
}

/// Strategy producing a `BTreeSet` with a size drawn from `size`
/// (duplicate draws are retried a bounded number of times).
pub fn btree_set<S>(element: S, size: Range<usize>) -> BTreeSetStrategy<S>
where
    S: Strategy,
    S::Value: Ord,
{
    BTreeSetStrategy { element, size }
}

/// Output of [`btree_set`].
#[derive(Clone)]
pub struct BTreeSetStrategy<S> {
    element: S,
    size: Range<usize>,
}

impl<S> Strategy for BTreeSetStrategy<S>
where
    S: Strategy,
    S::Value: Ord,
{
    type Value = BTreeSet<S::Value>;
    fn generate(&self, g: &mut Gen) -> BTreeSet<S::Value> {
        let target = g.usize_in(self.size.start, self.size.end);
        let mut out = BTreeSet::new();
        let mut attempts = 0usize;
        while out.len() < target && attempts < target * 20 + 50 {
            attempts += 1;
            out.insert(self.element.generate(g));
        }
        out
    }
}

/// Strategy producing a `BTreeMap` with a size drawn from `size`.
pub fn btree_map<K, V>(key: K, value: V, size: Range<usize>) -> BTreeMapStrategy<K, V>
where
    K: Strategy,
    K::Value: Ord,
    V: Strategy,
{
    BTreeMapStrategy { key, value, size }
}

/// Output of [`btree_map`].
#[derive(Clone)]
pub struct BTreeMapStrategy<K, V> {
    key: K,
    value: V,
    size: Range<usize>,
}

impl<K, V> Strategy for BTreeMapStrategy<K, V>
where
    K: Strategy,
    K::Value: Ord,
    V: Strategy,
{
    type Value = BTreeMap<K::Value, V::Value>;
    fn generate(&self, g: &mut Gen) -> BTreeMap<K::Value, V::Value> {
        let target = g.usize_in(self.size.start, self.size.end);
        let mut out = BTreeMap::new();
        let mut attempts = 0usize;
        while out.len() < target && attempts < target * 20 + 50 {
            attempts += 1;
            let k = self.key.generate(g);
            let v = self.value.generate(g);
            out.entry(k).or_insert(v);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::any;

    #[test]
    fn vec_length_in_range() {
        let s = vec(any::<u8>(), 2..7);
        let mut g = Gen::from_name("vec");
        for _ in 0..100 {
            let v = s.generate(&mut g);
            assert!((2..7).contains(&v.len()), "{}", v.len());
        }
    }

    #[test]
    fn set_reaches_target_size() {
        let s = btree_set("[a-z][a-z0-9]{1,8}", 1..12);
        let mut g = Gen::from_name("set");
        for _ in 0..50 {
            let v = s.generate(&mut g);
            assert!((1..12).contains(&v.len()), "{}", v.len());
        }
    }

    #[test]
    fn map_keys_unique_by_construction() {
        let s = btree_map("[a-z]{1,4}", any::<u8>(), 1..10);
        let mut g = Gen::from_name("map");
        for _ in 0..50 {
            let m = s.generate(&mut g);
            assert!(!m.is_empty() && m.len() < 10);
        }
    }
}
