//! Collection strategies.

use crate::strategy::Strategy;
use rand::rngs::SmallRng;
use rand::Rng;

/// Length specification for [`vec`](fn@vec): a half-open or inclusive range.
#[derive(Clone, Debug)]
pub struct SizeRange {
    low: usize,
    high_exclusive: usize,
}

impl From<std::ops::Range<usize>> for SizeRange {
    fn from(r: std::ops::Range<usize>) -> Self {
        SizeRange {
            low: r.start,
            high_exclusive: r.end,
        }
    }
}

impl From<std::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: std::ops::RangeInclusive<usize>) -> Self {
        SizeRange {
            low: *r.start(),
            high_exclusive: r.end() + 1,
        }
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange {
            low: n,
            high_exclusive: n + 1,
        }
    }
}

/// Strategy producing a `Vec` of values from an element strategy, with
/// length drawn from `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// See [`vec`](fn@vec).
#[derive(Clone, Debug)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut SmallRng) -> Vec<S::Value> {
        let len = if self.size.low + 1 >= self.size.high_exclusive {
            self.size.low
        } else {
            rng.gen_range(self.size.low..self.size.high_exclusive)
        };
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn vec_respects_length_bounds() {
        let mut rng = SmallRng::seed_from_u64(1);
        let s = vec(0u32..100, 2..5);
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!((2..5).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 100));
        }
    }

    #[test]
    fn fixed_size_from_usize() {
        let mut rng = SmallRng::seed_from_u64(2);
        assert_eq!(vec(0u32..10, 3).generate(&mut rng).len(), 3);
    }
}
