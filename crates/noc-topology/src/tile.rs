//! Rectangular tile partitioning of the router grid.
//!
//! The parallel stepping engine shards the mesh into rectangular tiles,
//! one per worker. A [`TilePartition`] picks the tile grid, assigns every
//! node to exactly one tile, and exposes the per-tile node lists in
//! ascending node-id order (the order a one-tile sweep visits them, which
//! the deterministic commit phase relies on).
//!
//! The partition is pure index arithmetic on the `width x height` router
//! grid, so it is topology-agnostic: torus wraparound and concentrated
//! meshes change which node pairs are neighbours (the engine's precomputed
//! neighbour table handles that), not which nodes exist. A wrap link whose
//! endpoints land in different tiles is simply a seam link like any other.

use noc_core::types::NodeId;

/// A partition of the `width x height` grid into `tx x ty` rectangular
/// tiles of near-equal size.
#[derive(Debug, Clone)]
pub struct TilePartition {
    /// Node ids per tile, each strictly ascending.
    tiles: Vec<Vec<NodeId>>,
    /// `shard_of[node]`: the tile owning that node.
    shard_of: Vec<u16>,
    /// Tile-grid dimensions (columns, rows).
    grid: (u16, u16),
}

impl TilePartition {
    /// Partition a `width x height` grid into (up to) `tiles` rectangles.
    ///
    /// The tile count is first clamped to the node count, then reduced to
    /// the largest value `t <= tiles` that factors as `tx * ty` with
    /// `tx <= width` and `ty <= height` (so every tile is a non-empty
    /// rectangle); among feasible factorizations the one with the shortest
    /// total seam length wins. `t = 1` is always feasible, so the search
    /// terminates. Callers size their worker pool from
    /// [`num_tiles`](Self::num_tiles), not from the request.
    pub fn new(width: u16, height: u16, tiles: usize) -> TilePartition {
        assert!(width >= 1 && height >= 1, "degenerate grid");
        let nodes = width as usize * height as usize;
        let mut want = tiles.clamp(1, nodes).min(u16::MAX as usize);
        let (tx, ty) = loop {
            if let Some(grid) = best_grid(width, height, want) {
                break grid;
            }
            want -= 1;
        };

        let mut shard_of = vec![0u16; nodes];
        let mut tile_nodes: Vec<Vec<NodeId>> = vec![Vec::new(); tx as usize * ty as usize];
        for y in 0..height {
            let band_y = band_of(y, height, ty);
            for x in 0..width {
                let band_x = band_of(x, width, tx);
                let tile = band_y as usize * tx as usize + band_x as usize;
                let node = NodeId(y * width + x);
                shard_of[node.index()] = tile as u16;
                tile_nodes[tile].push(node);
            }
        }
        debug_assert!(tile_nodes.iter().all(|t| !t.is_empty()));
        debug_assert!(tile_nodes.iter().all(|t| t.windows(2).all(|w| w[0] < w[1])));
        TilePartition {
            tiles: tile_nodes,
            shard_of,
            grid: (tx, ty),
        }
    }

    /// Number of tiles actually produced (may be less than requested).
    #[inline]
    pub fn num_tiles(&self) -> usize {
        self.tiles.len()
    }

    /// Tile-grid dimensions `(columns, rows)`.
    #[inline]
    pub fn grid(&self) -> (u16, u16) {
        self.grid
    }

    /// The nodes of one tile, in ascending node-id order.
    #[inline]
    pub fn nodes(&self, tile: usize) -> &[NodeId] {
        &self.tiles[tile]
    }

    /// The tile owning each node, indexed by `NodeId::index`.
    #[inline]
    pub fn shard_of(&self) -> &[u16] {
        &self.shard_of
    }

    /// The tile owning `node`.
    #[inline]
    pub fn tile_of(&self, node: NodeId) -> usize {
        self.shard_of[node.index()] as usize
    }
}

/// Band index of coordinate `c` when `len` cells split into `bands` ranges
/// with boundaries at `i * len / bands` (balanced to within one cell).
#[inline]
fn band_of(c: u16, len: u16, bands: u16) -> u16 {
    // Inverse of boundary(i) = i * len / bands: the band whose range
    // contains c. (c * bands + bands - 1) / len would overshoot at exact
    // boundaries; scan-free closed form below is exact for the floor rule.
    (((c as u32 + 1) * bands as u32 - 1) / len as u32) as u16
}

/// Cheapest feasible `tx * ty == want` factorization, if any: minimal total
/// seam length `(tx - 1) * height + (ty - 1) * width`, ties broken toward
/// fewer columns (deterministic).
fn best_grid(width: u16, height: u16, want: usize) -> Option<(u16, u16)> {
    let mut best: Option<(u16, u16, usize)> = None;
    for tx in 1..=want {
        if !want.is_multiple_of(tx) {
            continue;
        }
        let ty = want / tx;
        if tx > width as usize || ty > height as usize {
            continue;
        }
        let cost = (tx - 1) * height as usize + (ty - 1) * width as usize;
        if best.is_none_or(|(_, _, c)| cost < c) {
            best = Some((tx as u16, ty as u16, cost));
        }
    }
    best.map(|(tx, ty, _)| (tx, ty))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_partition(w: u16, h: u16, want: usize) -> TilePartition {
        let p = TilePartition::new(w, h, want);
        let nodes = w as usize * h as usize;
        // Exhaustive and disjoint: every node in exactly one tile.
        let mut seen = vec![false; nodes];
        for t in 0..p.num_tiles() {
            for &n in p.nodes(t) {
                assert!(!seen[n.index()], "node {n} in two tiles");
                seen[n.index()] = true;
                assert_eq!(p.tile_of(n), t);
            }
            // Ascending within each tile (the commit phase's merge order).
            assert!(p.nodes(t).windows(2).all(|w| w[0] < w[1]));
        }
        assert!(seen.iter().all(|&s| s), "unassigned node");
        p
    }

    #[test]
    fn exact_grids() {
        let p = check_partition(16, 16, 4);
        assert_eq!(p.num_tiles(), 4);
        assert_eq!(p.grid(), (2, 2));
        let p = check_partition(8, 8, 8);
        assert_eq!(p.num_tiles(), 8);
        // 2x4 and 4x2 both cost 8+24=32 vs 24+8=32... pick deterministic.
        let (tx, ty) = p.grid();
        assert_eq!(tx as usize * ty as usize, 8);
    }

    #[test]
    fn single_tile_and_clamping() {
        let p = check_partition(8, 8, 1);
        assert_eq!(p.num_tiles(), 1);
        assert_eq!(p.nodes(0).len(), 64);
        // More tiles than nodes clamps to the node count.
        let p = check_partition(2, 2, 64);
        assert_eq!(p.num_tiles(), 4);
    }

    #[test]
    fn infeasible_counts_fall_back() {
        // 7 on a 4x4: 7x1 and 1x7 both exceed a dimension; falls to 6 = 3x2.
        let p = check_partition(4, 4, 7);
        assert!(p.num_tiles() <= 7 && p.num_tiles() >= 4);
        let (tx, ty) = p.grid();
        assert!(tx <= 4 && ty <= 4);
    }

    #[test]
    fn uneven_dimensions_balance() {
        let p = check_partition(10, 6, 4);
        assert_eq!(p.num_tiles(), 4);
        let sizes: Vec<usize> = (0..4).map(|t| p.nodes(t).len()).collect();
        let (min, max) = (*sizes.iter().min().unwrap(), *sizes.iter().max().unwrap());
        // Near-equal tiles: no tile more than a row/column larger.
        assert!(max - min <= 10, "unbalanced tiles: {sizes:?}");
    }

    #[test]
    fn stripes_when_prime() {
        let p = check_partition(16, 4, 3);
        assert_eq!(p.num_tiles(), 3);
        assert_eq!(p.grid(), (3, 1));
    }
}
