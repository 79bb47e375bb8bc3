//! Groups and groupings (the output of group formation).

use crate::error::{GfError, Result};
use std::sync::Arc;

/// The entry of a [`Grouping::assignment`] for a user no group covers.
pub const UNASSIGNED: u32 = u32::MAX;

/// One formed group: its members, the top-`k` item list recommended to it,
/// and its satisfaction with that list.
///
/// The member list is shared: cloning a group copies a pointer, not the
/// members, and [`crate::IncrementalFormer`] hands the member lists a
/// refresh left alone to the next formation as they are. Equality
/// compares contents.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Group {
    /// Member user indices, sorted ascending.
    pub members: Arc<[u32]>,
    /// The recommended top-`k` list: `(item, group score)` pairs, best first.
    /// Scores follow the semantics the group was formed under.
    pub top_k: Vec<(u32, f64)>,
    /// The group's satisfaction `gs(I_g^k)` under the configured
    /// aggregation function.
    pub satisfaction: f64,
}

impl Group {
    /// Number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the group has no members.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The recommended items without their scores, best first.
    pub fn items(&self) -> impl Iterator<Item = u32> + '_ {
        self.top_k.iter().map(|&(i, _)| i)
    }
}

/// A complete grouping: at most `ell` disjoint groups covering all users.
#[derive(Debug, Clone, PartialEq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Grouping {
    /// The groups, in the order the algorithm formed them.
    pub groups: Vec<Group>,
}

impl Grouping {
    /// Creates a grouping from groups.
    pub fn new(groups: Vec<Group>) -> Self {
        Grouping { groups }
    }

    /// Number of groups.
    #[inline]
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether there are no groups.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Sum of group satisfactions — the objective `Obj` of Section 2.4.
    pub fn objective(&self) -> f64 {
        self.groups.iter().map(|g| g.satisfaction).sum()
    }

    /// Sizes of the groups, in formation order.
    pub fn sizes(&self) -> Vec<usize> {
        self.groups.iter().map(Group::len).collect()
    }

    /// The group index each of the first `n_users` users belongs to,
    /// [`UNASSIGNED`] where no group covers it: 4 bytes per user.
    pub fn assignment(&self, n_users: u32) -> Vec<u32> {
        let mut assign = vec![UNASSIGNED; n_users as usize];
        for (gi, g) in self.groups.iter().enumerate() {
            for &u in g.members.iter() {
                if let Some(slot) = assign.get_mut(u as usize) {
                    *slot = gi as u32;
                }
            }
        }
        assign
    }

    /// Validates the Section-2.4 constraints: at most `ell` non-empty,
    /// pairwise-disjoint groups that together cover all `n_users` users.
    pub fn validate(&self, n_users: u32, ell: usize) -> Result<()> {
        if self.groups.len() > ell {
            return Err(GfError::InvalidGrouping(format!(
                "{} groups formed but at most {ell} allowed",
                self.groups.len()
            )));
        }
        let mut seen = vec![false; n_users as usize];
        for (gi, g) in self.groups.iter().enumerate() {
            if g.is_empty() {
                return Err(GfError::InvalidGrouping(format!("group {gi} is empty")));
            }
            for &u in g.members.iter() {
                if u >= n_users {
                    return Err(GfError::UserOutOfRange { user: u, n_users });
                }
                if seen[u as usize] {
                    return Err(GfError::InvalidGrouping(format!(
                        "user {u} appears in more than one group"
                    )));
                }
                seen[u as usize] = true;
            }
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            return Err(GfError::InvalidGrouping(format!(
                "user {missing} is not assigned to any group"
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group(members: &[u32], sat: f64) -> Group {
        Group {
            members: members.into(),
            top_k: vec![],
            satisfaction: sat,
        }
    }

    #[test]
    fn objective_sums_satisfactions() {
        let g = Grouping::new(vec![group(&[0, 1], 5.0), group(&[2], 3.0)]);
        assert_eq!(g.objective(), 8.0);
        assert_eq!(g.sizes(), vec![2, 1]);
    }

    #[test]
    fn validate_accepts_partition() {
        let g = Grouping::new(vec![group(&[0, 2], 1.0), group(&[1], 1.0)]);
        assert!(g.validate(3, 2).is_ok());
        assert!(g.validate(3, 5).is_ok());
    }

    #[test]
    fn validate_rejects_overlap() {
        let g = Grouping::new(vec![group(&[0, 1], 1.0), group(&[1], 1.0)]);
        let err = g.validate(2, 2).unwrap_err();
        assert!(matches!(err, GfError::InvalidGrouping(_)));
    }

    #[test]
    fn validate_rejects_uncovered_user() {
        let g = Grouping::new(vec![group(&[0], 1.0)]);
        assert!(g.validate(2, 2).is_err());
    }

    #[test]
    fn validate_rejects_too_many_groups() {
        let g = Grouping::new(vec![group(&[0], 1.0), group(&[1], 1.0)]);
        assert!(g.validate(2, 1).is_err());
    }

    #[test]
    fn validate_rejects_empty_group_and_bad_user() {
        let g = Grouping::new(vec![group(&[], 0.0)]);
        assert!(g.validate(1, 1).is_err());
        let g = Grouping::new(vec![group(&[7], 0.0)]);
        assert!(matches!(
            g.validate(2, 1).unwrap_err(),
            GfError::UserOutOfRange { .. }
        ));
    }

    #[test]
    fn assignment_maps_users() {
        let g = Grouping::new(vec![group(&[0, 2], 1.0), group(&[1], 1.0)]);
        assert_eq!(g.assignment(4), vec![0, 1, 0, UNASSIGNED]);
    }
}
