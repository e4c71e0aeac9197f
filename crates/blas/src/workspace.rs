//! Grow-only staging-buffer pool for the routine layer.
//!
//! Every fast `TunedGemm::gemm` call needs two scratch buffers, the
//! panel-packed A and B (the microkernel updates the caller's `C` in
//! place, so nothing stages `C`). Allocating them fresh per call puts
//! an `O(N²)` `vec![0; …]` (allocation **plus** full zero-fill) on the
//! serving hot path. A [`Workspace`] owns one grow-only buffer per role
//! and precision: buffers only ever expand, so a steady-state workload
//! (same shape bucket over and over, the common serving case) performs
//! zero staging allocations after the first call. The packers re-fill
//! interior and padding fringe on every call, so stale contents are
//! harmless.
//!
//! One pool per precision exists because a server worker serves both
//! SGEMM and DGEMM traffic through the same workspace.

use crate::scalar::Scalar;

/// The two packing buffers of one precision.
#[derive(Debug, Default, Clone)]
pub struct Pool<T> {
    pa: Vec<T>,
    pb: Vec<T>,
    grows: u64,
}

impl<T: Scalar> Pool<T> {
    fn ensure(buf: &mut Vec<T>, len: usize, grows: &mut u64) {
        if buf.len() < len {
            buf.resize(len, T::ZERO);
            *grows += 1;
        }
    }

    /// Hand out both buffers at exactly the requested lengths, growing
    /// backing storage only when a request exceeds every previous one.
    pub fn buffers(&mut self, len_a: usize, len_b: usize) -> (&mut [T], &mut [T]) {
        let mut grows = 0;
        Self::ensure(&mut self.pa, len_a, &mut grows);
        Self::ensure(&mut self.pb, len_b, &mut grows);
        self.grows += grows;
        (&mut self.pa[..len_a], &mut self.pb[..len_b])
    }

    fn held_bytes(&self) -> usize {
        (self.pa.capacity() + self.pb.capacity()) * std::mem::size_of::<T>()
    }
}

/// Reusable staging buffers for both precisions, plus growth telemetry.
#[derive(Debug, Default, Clone)]
pub struct Workspace {
    f32: Pool<f32>,
    f64: Pool<f64>,
}

impl Workspace {
    /// An empty workspace; buffers grow on first use.
    #[must_use]
    pub fn new() -> Workspace {
        Workspace::default()
    }

    /// The pool for a precision (via the sealed [`WorkspaceScalar`]).
    pub fn pool<T: WorkspaceScalar>(&mut self) -> &mut Pool<T> {
        T::pool(self)
    }

    /// How many times any buffer had to grow. A steady-state serving
    /// loop must leave this constant between drains — the bench smoke
    /// gate asserts exactly that.
    #[must_use]
    pub fn grows(&self) -> u64 {
        self.f32.grows + self.f64.grows
    }

    /// Total bytes of staging storage currently held.
    #[must_use]
    pub fn held_bytes(&self) -> usize {
        self.f32.held_bytes() + self.f64.held_bytes()
    }
}

/// Staging buffers for one strided-batched GEMM call: one shared
/// workspace for operands packed once per batch (shared `A`/`B`), plus a
/// grow-only set of per-worker workspaces so batch entries executing in
/// parallel stage without contention. Like [`Workspace`], everything is
/// grow-only: a steady-state batched workload performs zero staging
/// allocations after warm-up, and [`BatchWorkspace::grows`] is the gate.
#[derive(Debug, Default, Clone)]
pub struct BatchWorkspace {
    shared: Workspace,
    workers: Vec<Workspace>,
}

impl BatchWorkspace {
    /// An empty batch workspace; buffers grow on first use.
    #[must_use]
    pub fn new() -> BatchWorkspace {
        BatchWorkspace::default()
    }

    /// Split into the shared workspace and at least `n_workers` worker
    /// workspaces (growing the worker set only when a call needs more
    /// than any previous one).
    pub fn parts(&mut self, n_workers: usize) -> (&mut Workspace, &mut [Workspace]) {
        let n = n_workers.max(1);
        if self.workers.len() < n {
            self.workers.resize_with(n, Workspace::new);
        }
        (&mut self.shared, &mut self.workers[..n])
    }

    /// Total growth events across the shared and worker workspaces.
    #[must_use]
    pub fn grows(&self) -> u64 {
        self.shared.grows() + self.workers.iter().map(Workspace::grows).sum::<u64>()
    }

    /// Total bytes of staging storage currently held.
    #[must_use]
    pub fn held_bytes(&self) -> usize {
        self.shared.held_bytes()
            + self
                .workers
                .iter()
                .map(Workspace::held_bytes)
                .sum::<usize>()
    }
}

/// Precisions that have a pool inside [`Workspace`]. Sealed: exactly the
/// two [`Scalar`] impls.
pub trait WorkspaceScalar: Scalar {
    /// Select this precision's pool.
    fn pool(ws: &mut Workspace) -> &mut Pool<Self>;
}

impl WorkspaceScalar for f32 {
    fn pool(ws: &mut Workspace) -> &mut Pool<f32> {
        &mut ws.f32
    }
}

impl WorkspaceScalar for f64 {
    fn pool(ws: &mut Workspace) -> &mut Pool<f64> {
        &mut ws.f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_have_requested_lengths() {
        let mut ws = Workspace::new();
        let (pa, pb) = ws.pool::<f64>().buffers(10, 20);
        assert_eq!((pa.len(), pb.len()), (10, 20));
    }

    #[test]
    fn shrinking_then_growing_reuses_storage() {
        let mut ws = Workspace::new();
        ws.pool::<f32>().buffers(100, 100);
        assert_eq!(ws.grows(), 2);
        let bytes = ws.held_bytes();
        // Smaller request: no growth, same storage.
        ws.pool::<f32>().buffers(10, 10);
        assert_eq!(ws.grows(), 2);
        assert_eq!(ws.held_bytes(), bytes);
        // Equal request: still no growth.
        ws.pool::<f32>().buffers(100, 100);
        assert_eq!(ws.grows(), 2);
        // Larger request grows again.
        ws.pool::<f32>().buffers(200, 100);
        assert_eq!(ws.grows(), 3);
    }

    #[test]
    fn precisions_have_independent_pools() {
        let mut ws = Workspace::new();
        ws.pool::<f64>().buffers(50, 50);
        let before = ws.held_bytes();
        ws.pool::<f32>().buffers(50, 50);
        assert!(ws.held_bytes() > before);
        assert_eq!(ws.grows(), 4);
    }

    #[test]
    fn batch_workspace_grows_workers_monotonically() {
        let mut bws = BatchWorkspace::new();
        let (shared, workers) = bws.parts(3);
        shared.pool::<f32>().buffers(8, 8);
        assert_eq!(workers.len(), 3);
        for w in workers.iter_mut() {
            w.pool::<f32>().buffers(4, 4);
        }
        let grows = bws.grows();
        assert_eq!(grows, 2 + 3 * 2);
        assert!(bws.held_bytes() > 0);
        // Fewer workers: the set does not shrink, and re-requesting the
        // same buffer sizes causes no growth.
        let (_, workers) = bws.parts(2);
        assert_eq!(workers.len(), 2);
        for w in workers.iter_mut() {
            w.pool::<f32>().buffers(4, 4);
        }
        assert_eq!(bws.grows(), grows);
        // More workers than ever before: the new ones start empty.
        let (_, workers) = bws.parts(4);
        assert_eq!(workers.len(), 4);
        assert_eq!(workers[3].grows(), 0);
    }

    #[test]
    fn stale_contents_are_exposed_not_rezeroed() {
        // The pool intentionally does NOT clear reused buffers — the
        // packers overwrite interior and fringe. This test pins that
        // contract so a future "helpful" clear would be caught.
        let mut ws = Workspace::new();
        {
            let (pa, _) = ws.pool::<f64>().buffers(4, 4);
            pa.fill(7.0);
        }
        let (pa, _) = ws.pool::<f64>().buffers(4, 4);
        assert_eq!(pa, [7.0; 4]);
    }
}
