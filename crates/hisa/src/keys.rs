//! Rotation-key policies (paper §2.4 and §5.4).
//!
//! Rotating a ciphertext by `x` slots needs a public rotation key specific
//! to `x`. Generating a key per possible rotation is infeasible (there are
//! `N/2` of them), so FHE libraries default to keys for power-of-two
//! rotations and compose others from several rotations. CHET's rotation-key
//! selection pass instead records the exact set of rotation amounts a
//! circuit uses and generates precisely those keys.

use std::collections::BTreeSet;

/// Normalizes a signed rotation amount to a left-rotation step in
/// `[0, slots)`. Positive input means "rotate left", negative means
/// "rotate right".
///
/// # Panics
///
/// Panics if `slots == 0`.
pub fn normalize_rotation(step: i64, slots: usize) -> usize {
    assert!(slots > 0, "slot count must be positive");
    let m = slots as i64;
    (((step % m) + m) % m) as usize
}

/// Which rotation keys a scheme instance should generate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RotationKeyPolicy {
    /// The library default: keys for every power-of-two left and right
    /// rotation (`2 log(N) − 2` keys). Arbitrary rotations are composed
    /// from several power-of-two rotations.
    PowersOfTwo,
    /// Exactly the given set of left-rotation steps (each in `[1, slots)`),
    /// as selected by the compiler's rotation-keys pass.
    Exact(BTreeSet<usize>),
}

impl Default for RotationKeyPolicy {
    fn default() -> Self {
        RotationKeyPolicy::PowersOfTwo
    }
}

impl RotationKeyPolicy {
    /// The concrete set of left-rotation steps to generate keys for, given
    /// the scheme's slot count.
    pub fn steps(&self, slots: usize) -> BTreeSet<usize> {
        match self {
            RotationKeyPolicy::PowersOfTwo => {
                let mut steps = BTreeSet::new();
                let mut p = 1usize;
                while p < slots {
                    steps.insert(p); // left by 2^k
                    steps.insert(slots - p); // right by 2^k == left by slots − 2^k
                    p <<= 1;
                }
                steps
            }
            RotationKeyPolicy::Exact(set) => set
                .iter()
                .map(|&s| normalize_rotation(s as i64, slots))
                .filter(|&s| s != 0)
                .collect(),
        }
    }

    /// Number of keys this policy will generate.
    pub fn key_count(&self, slots: usize) -> usize {
        self.steps(slots).len()
    }
}

/// Plans how to realize a left rotation by `step` using only the `available`
/// key steps: returns the sequence of left-rotation steps to apply.
///
/// Strategy mirrors the FHE libraries: use the key directly when present,
/// otherwise greedily compose from the largest available steps (which always
/// succeeds for the power-of-two key set). When the greedy pass fails — e.g.
/// an exact key set whose steps only reach the target *with* wrap-around —
/// a breadth-first search over residues modulo `slots` finds a shortest
/// composition if one exists. Returns `None` when the step cannot be
/// composed from the available keys at all.
pub fn plan_rotation(step: usize, available: &BTreeSet<usize>, slots: usize) -> Option<Vec<usize>> {
    let step = normalize_rotation(step as i64, slots);
    if step == 0 {
        return Some(Vec::new());
    }
    if available.contains(&step) {
        return Some(vec![step]);
    }
    greedy_plan(step, available, slots).or_else(|| bfs_plan(step, available, slots))
}

/// Greedy composition: repeatedly take the largest available step
/// `<= remaining`. Fast and optimal for power-of-two key sets.
fn greedy_plan(step: usize, available: &BTreeSet<usize>, slots: usize) -> Option<Vec<usize>> {
    let mut remaining = step;
    let mut plan = Vec::new();
    while remaining > 0 {
        let next = available.range(..=remaining).next_back().copied()?;
        plan.push(next);
        remaining -= next;
        if plan.len() > 2 * slots.trailing_zeros() as usize + 2 {
            // Defensive bound: with power-of-two keys the plan length is at
            // most log2(slots); anything longer means the set cannot span.
            return None;
        }
    }
    Some(plan)
}

/// Shortest composition of available steps reaching `step` modulo `slots`,
/// or `None` if `step` lies outside the subgroup the steps generate.
fn bfs_plan(step: usize, available: &BTreeSet<usize>, slots: usize) -> Option<Vec<usize>> {
    if available.is_empty() {
        return None;
    }
    // predecessor[r] = (previous residue, step taken); usize::MAX = unvisited.
    let mut pred: Vec<(usize, usize)> = vec![(usize::MAX, 0); slots];
    let mut queue = std::collections::VecDeque::from([0usize]);
    while let Some(at) = queue.pop_front() {
        for &s in available {
            let next = (at + s) % slots;
            if next != 0 && pred[next].0 == usize::MAX {
                pred[next] = (at, s);
                if next == step {
                    let mut plan = Vec::new();
                    let mut r = step;
                    while r != 0 {
                        let (prev, taken) = pred[r];
                        plan.push(taken);
                        r = prev;
                    }
                    plan.reverse();
                    return Some(plan);
                }
                queue.push_back(next);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_wraps_and_signs() {
        assert_eq!(normalize_rotation(3, 16), 3);
        assert_eq!(normalize_rotation(-3, 16), 13);
        assert_eq!(normalize_rotation(16, 16), 0);
        assert_eq!(normalize_rotation(35, 16), 3);
        assert_eq!(normalize_rotation(-35, 16), 13);
    }

    #[test]
    fn power_of_two_key_count_matches_paper() {
        // Paper §5.4: only 2 log(N) − 2 rotation keys are stored by default.
        // With slots = N/2 that is 2 log2(slots) − 1 distinct left steps
        // (left and right powers coincide at slots/2).
        let slots = 2048usize;
        let policy = RotationKeyPolicy::PowersOfTwo;
        assert_eq!(policy.key_count(slots), 2 * slots.trailing_zeros() as usize - 1);
    }

    #[test]
    fn exact_policy_normalizes_and_drops_zero() {
        let set: BTreeSet<usize> = [0usize, 5, 21].into_iter().collect();
        let policy = RotationKeyPolicy::Exact(set);
        let steps = policy.steps(16);
        assert_eq!(steps, [5usize].into_iter().collect()); // 21 % 16 == 5, 0 dropped
    }

    #[test]
    fn plan_uses_direct_key_when_available() {
        let avail: BTreeSet<usize> = [1usize, 2, 4, 6, 8].into_iter().collect();
        assert_eq!(plan_rotation(6, &avail, 16), Some(vec![6]));
    }

    #[test]
    fn plan_composes_from_powers_of_two() {
        let slots = 64usize;
        let avail = RotationKeyPolicy::PowersOfTwo.steps(slots);
        for step in 1..slots {
            let plan = plan_rotation(step, &avail, slots).expect("pow2 keys span everything");
            assert_eq!(plan.iter().sum::<usize>() % slots, step);
        }
    }

    #[test]
    fn plan_fails_when_unspannable() {
        let avail: BTreeSet<usize> = [4usize].into_iter().collect();
        assert_eq!(plan_rotation(3, &avail, 16), None);
    }

    #[test]
    fn plan_falls_back_to_wraparound_composition() {
        // Greedy fails (no step <= 8), but 12 + 12 ≡ 8 (mod 16).
        let avail: BTreeSet<usize> = [12usize].into_iter().collect();
        assert_eq!(plan_rotation(8, &avail, 16), Some(vec![12, 12]));

        // A generator of the full group reaches any residue eventually.
        let avail: BTreeSet<usize> = [3usize].into_iter().collect();
        let plan = plan_rotation(2, &avail, 16).expect("3 generates Z/16");
        assert_eq!(plan.iter().sum::<usize>() % 16, 2);
    }

    #[test]
    fn zero_rotation_is_empty_plan() {
        let avail = BTreeSet::new();
        assert_eq!(plan_rotation(0, &avail, 8), Some(vec![]));
        assert_eq!(plan_rotation(8, &avail, 8), Some(vec![]));
    }
}
