//! The idle pool, and the allocation view's idle list kept across rounds.
//!
//! Every allocation view lists the pooled executors on schedulable nodes,
//! in executor-id order. Rebuilding that list walks the whole pool, which
//! at 10k nodes is ~20k entries per view even when a round moved only a
//! handful of executors. The pool therefore records which executors
//! entered or left it since the last view, and the next view patches the
//! kept list with those entries alone — one merge instead of one
//! bitset walk, node lookup and health check per pooled executor.
//!
//! The kept list is dropped, and rebuilt from the pool, whenever a node's
//! schedulability may have changed (health belief transitions, probation
//! probe caps, executor-list invalidation): those change membership
//! without touching the pool.

use custody_cluster::ExecutorId;
use custody_core::ExecutorInfo;
use custody_simcore::DenseSet;

/// Idle, unowned executors, as a bitset keyed by `ExecutorId::index()`
/// (ascending iteration, so allocator views list them in id order), plus
/// the last view's idle list and the membership changes since.
#[derive(Debug, Clone, Default, PartialEq)]
pub(super) struct IdlePool {
    members: DenseSet,
    /// Keep the view's idle list across rounds (the incremental engine);
    /// the reference path rebuilds it every view.
    keep: bool,
    /// The last view's idle list: pooled executors on schedulable nodes,
    /// ascending. `None` means the next view rebuilds it.
    kept: Option<Vec<ExecutorInfo>>,
    /// Executors whose membership changed since `kept` was brought up to
    /// date (duplicates allowed). Recorded only while `kept` exists.
    touched: Vec<u32>,
}

impl IdlePool {
    /// A pool holding executors `0..n`.
    pub fn full(n: usize, keep: bool) -> Self {
        IdlePool {
            members: (0..n).collect(),
            keep,
            kept: None,
            touched: Vec::new(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    pub fn contains(&self, index: usize) -> bool {
        self.members.contains(index)
    }

    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.members.iter()
    }

    pub fn insert(&mut self, index: usize) -> bool {
        let changed = self.members.insert(index);
        if changed {
            self.touch(index);
        }
        changed
    }

    pub fn remove(&mut self, index: usize) -> bool {
        let changed = self.members.remove(index);
        if changed {
            self.touch(index);
        }
        changed
    }

    fn touch(&mut self, index: usize) {
        let Some(kept) = &self.kept else { return };
        // Past one change per listed executor a rebuild costs no more
        // than the patch, and the log stays bounded between views.
        if self.touched.len() >= kept.len().max(64) {
            self.invalidate_view();
        } else {
            self.touched.push(index as u32);
        }
    }

    /// Some node's schedulability may have changed: the next view
    /// rebuilds its idle list from the pool.
    pub fn invalidate_view(&mut self) {
        self.kept = None;
        self.touched.clear();
    }

    /// The idle list for one allocation view: pooled executors that
    /// `listed` maps to an entry (those on schedulable nodes), ascending.
    /// Patches the kept list when there is one; `scanned` counts the
    /// executors examined. Hand the list back with
    /// [`return_view`](Self::return_view).
    pub fn lend_view(
        &mut self,
        listed: impl Fn(ExecutorId) -> Option<ExecutorInfo>,
        scanned: &mut usize,
    ) -> Vec<ExecutorInfo> {
        let Some(kept) = self.kept.take().filter(|_| self.keep) else {
            *scanned += self.members.len();
            return self
                .members
                .iter()
                .filter_map(|e| listed(ExecutorId::new(e)))
                .collect();
        };
        let mut touched = std::mem::take(&mut self.touched);
        if touched.is_empty() {
            return kept;
        }
        touched.sort_unstable();
        touched.dedup();
        *scanned += touched.len();
        let added: Vec<ExecutorInfo> = touched
            .iter()
            .map(|&e| e as usize)
            .filter(|&e| self.members.contains(e))
            .filter_map(|e| listed(ExecutorId::new(e)))
            .collect();
        // One merge: the kept entries no change touched, plus the touched
        // executors that are listed now.
        let mut out = Vec::with_capacity(kept.len() + added.len());
        let (mut t, mut a) = (0, 0);
        for info in kept {
            let id = info.id.index();
            while a < added.len() && added[a].id.index() < id {
                out.push(added[a]);
                a += 1;
            }
            while t < touched.len() && (touched[t] as usize) < id {
                t += 1;
            }
            if t < touched.len() && touched[t] as usize == id {
                continue;
            }
            out.push(info);
        }
        out.extend_from_slice(&added[a..]);
        touched.clear();
        self.touched = touched;
        out
    }

    /// Keeps a view's idle list for the next view to patch.
    pub fn return_view(&mut self, list: Vec<ExecutorInfo>) {
        if self.keep {
            debug_assert!(self.touched.is_empty(), "pool changed while a view was out");
            self.kept = Some(list);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use custody_dfs::NodeId;

    fn listed(e: ExecutorId) -> Option<ExecutorInfo> {
        // Executors on node 1 are unschedulable.
        let node = NodeId::new(e.index() / 4);
        (node.index() != 1).then_some(ExecutorInfo { id: e, node })
    }

    fn rebuilt(pool: &IdlePool) -> Vec<ExecutorInfo> {
        pool.iter()
            .filter_map(|e| listed(ExecutorId::new(e)))
            .collect()
    }

    #[test]
    fn patched_view_matches_a_rebuild() {
        let mut pool = IdlePool::full(16, true);
        let mut scanned = 0;
        let first = pool.lend_view(listed, &mut scanned);
        assert_eq!(first, rebuilt(&pool));
        assert_eq!(scanned, 16);
        pool.return_view(first);
        for (e, take) in [
            (3, true),
            (0, true),
            (15, true),
            (3, false),
            (9, true),
            (5, true),
        ] {
            if take {
                pool.remove(e);
            } else {
                pool.insert(e);
            }
        }
        let patched = pool.lend_view(listed, &mut scanned);
        assert_eq!(patched, rebuilt(&pool));
        assert_eq!(scanned, 16 + 5, "five distinct executors were touched");
        pool.return_view(patched);
        let unchanged = pool.lend_view(listed, &mut scanned);
        assert_eq!(unchanged, rebuilt(&pool));
        assert_eq!(scanned, 21, "an untouched pool scans nothing");
    }

    #[test]
    fn reference_pool_never_keeps_a_view() {
        let mut pool = IdlePool::full(8, false);
        let mut scanned = 0;
        let view = pool.lend_view(listed, &mut scanned);
        pool.return_view(view);
        pool.remove(2);
        assert_eq!(pool.lend_view(listed, &mut scanned), rebuilt(&pool));
        assert_eq!(scanned, 8 + 7);
    }
}
