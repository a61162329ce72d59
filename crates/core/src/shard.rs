//! Consistent-hash shard map for the multi-daemon service layer.
//!
//! A campaign sharded across N `ccs-serve` daemons needs a *stable*
//! assignment from cell to shard: every client must route the same cell
//! to the same daemon (so the result cache and journal of exactly one
//! shard own that cell), and the assignment must survive one shard
//! dying without reshuffling the whole keyspace. A [`ShardMap`] is the
//! classic consistent-hash ring over the existing
//! [`cell_key`](crate::cell_key) fingerprint:
//!
//! * Each shard address contributes `vnodes` points on a 64-bit ring
//!   (FNV-1a of `"{addr}#{v}"`), smoothing the per-shard keyspace share.
//! * A cell hashes to the ring (FNV-1a of its `cell_key` string) and is
//!   owned by the first point clockwise — [`ShardMap::shard_for`].
//! * When that shard is unreachable the client fails over along
//!   [`ShardMap::successors`]: the remaining shards in ring order, each
//!   appearing once. Every client computes the same failover order, so
//!   re-placement under failure is deterministic too.
//! * [`ShardMap::version`] fingerprints the topology (member list +
//!   vnode count); clients embed it in logs and records so a response
//!   computed under a different topology is detectable.
//!
//! The map is pure data — no sockets, no locks — so it lives here in
//! `ccs-core` next to the key it hashes, below both the client and the
//! daemon.

use crate::error::CcsError;
use ccs_trace::fnv1a;

/// A ring point: FNV-1a plus a splitmix64-style finalizer. Bare FNV-1a
/// has poor avalanche on near-identical short strings (the vnode labels
/// `"addr#0"…"addr#63"` differ only in trailing bytes), which clusters
/// points and skews the keyspace split badly; the finalizer restores an
/// even spread while staying a pure function of the input bytes.
fn ring_point(bytes: &[u8]) -> u64 {
    let mut z = fnv1a(bytes);
    z ^= z >> 30;
    z = z.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Default virtual nodes per shard: enough to keep the keyspace split
/// within a few percent of even for small clusters.
pub const DEFAULT_VNODES: usize = 64;

/// A versioned consistent-hash ring mapping cell keys to shard
/// addresses.
#[derive(Debug, Clone)]
pub struct ShardMap {
    shards: Vec<String>,
    /// `(ring_point, shard_index)` sorted by point.
    ring: Vec<(u64, usize)>,
    vnodes: usize,
    version: u64,
}

impl ShardMap {
    /// Builds a ring over `shards` (daemon addresses, e.g.
    /// `"127.0.0.1:7405"`) with [`DEFAULT_VNODES`] points each.
    ///
    /// # Errors
    ///
    /// [`CcsError::Config`] is not used here (it wraps machine config);
    /// an empty or duplicated member list yields [`CcsError::Protocol`]
    /// since it would make routing ill-defined.
    pub fn new(shards: &[String]) -> Result<Self, CcsError> {
        Self::with_vnodes(shards, DEFAULT_VNODES)
    }

    /// Builds a ring with an explicit virtual-node count (≥ 1).
    pub fn with_vnodes(shards: &[String], vnodes: usize) -> Result<Self, CcsError> {
        if shards.is_empty() {
            return Err(CcsError::Protocol {
                message: "shard map needs at least one shard".into(),
            });
        }
        let vnodes = vnodes.max(1);
        let mut seen = std::collections::HashSet::new();
        for s in shards {
            if s.trim().is_empty() {
                return Err(CcsError::Protocol {
                    message: "shard map member address is empty".into(),
                });
            }
            if !seen.insert(s.as_str()) {
                return Err(CcsError::Protocol {
                    message: format!("duplicate shard address {s}"),
                });
            }
        }
        let shards: Vec<String> = shards.to_vec();
        let mut ring = Vec::with_capacity(shards.len() * vnodes);
        for (i, addr) in shards.iter().enumerate() {
            for v in 0..vnodes {
                ring.push((ring_point(format!("{addr}#{v}").as_bytes()), i));
            }
        }
        // Points are 64-bit hashes of distinct strings; ties are
        // astronomically unlikely but break them by shard index so the
        // ring is still a deterministic function of the member list.
        ring.sort_unstable();
        let mut version: u64 = fnv1a(b"ccs-shard-map");
        version ^= fnv1a(&(vnodes as u64).to_le_bytes());
        for addr in &shards {
            version = version
                .rotate_left(7)
                .wrapping_add(fnv1a(addr.as_bytes()));
        }
        Ok(ShardMap {
            shards,
            ring,
            vnodes,
            version,
        })
    }

    /// The member addresses, in the order given at construction.
    pub fn shards(&self) -> &[String] {
        &self.shards
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether the map has no members (never true for a constructed map).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Virtual nodes per shard.
    pub fn vnodes(&self) -> usize {
        self.vnodes
    }

    /// Topology fingerprint: changes whenever the member list (content
    /// or order) or vnode count changes.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Index into [`shards`](Self::shards) of the ring successor of
    /// `key`'s hash point.
    fn owner_index(&self, key: &str) -> usize {
        let h = ring_point(key.as_bytes());
        let at = self.ring.partition_point(|&(p, _)| p < h);
        let (_, idx) = self.ring[at % self.ring.len()];
        idx
    }

    /// The shard that owns `key` (a [`cell_key`](crate::cell_key)
    /// string).
    pub fn shard_for(&self, key: &str) -> &str {
        &self.shards[self.owner_index(key)]
    }

    /// Every shard in `key`'s failover order: the owner first, then the
    /// remaining shards as they first appear walking the ring clockwise
    /// from the key's point. Each shard appears exactly once.
    pub fn successors(&self, key: &str) -> Vec<&str> {
        let h = ring_point(key.as_bytes());
        let start = self.ring.partition_point(|&(p, _)| p < h);
        let mut order = Vec::with_capacity(self.shards.len());
        let mut seen = vec![false; self.shards.len()];
        for step in 0..self.ring.len() {
            let (_, idx) = self.ring[(start + step) % self.ring.len()];
            if !seen[idx] {
                seen[idx] = true;
                order.push(self.shards[idx].as_str());
                if order.len() == self.shards.len() {
                    break;
                }
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn members(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("127.0.0.1:{}", 7400 + i)).collect()
    }

    fn keys(n: usize) -> Vec<String> {
        (0..n)
            .map(|i| format!("gzip/s{i}/n2000/C4x2w/Focused/{:016x}", i as u64 * 0x9e37))
            .collect()
    }

    #[test]
    fn empty_and_duplicate_members_are_rejected() {
        assert!(ShardMap::new(&[]).is_err());
        let dup = vec!["a:1".to_string(), "a:1".to_string()];
        assert!(ShardMap::new(&dup).is_err());
        let blank = vec!["a:1".to_string(), "  ".to_string()];
        assert!(ShardMap::new(&blank).is_err());
    }

    #[test]
    fn routing_is_deterministic_and_member_order_independent() {
        let m = members(3);
        let map = ShardMap::new(&m).unwrap();
        let mut rev = m.clone();
        rev.reverse();
        let map_rev = ShardMap::new(&rev).unwrap();
        for k in keys(200) {
            assert_eq!(map.shard_for(&k), map.shard_for(&k));
            // Ring placement depends only on address strings, not the
            // order members were listed in.
            assert_eq!(map.shard_for(&k), map_rev.shard_for(&k));
        }
    }

    #[test]
    fn successors_start_at_the_owner_and_cover_every_shard_once() {
        let map = ShardMap::new(&members(4)).unwrap();
        for k in keys(50) {
            let order = map.successors(&k);
            assert_eq!(order.len(), 4);
            assert_eq!(order[0], map.shard_for(&k));
            let mut sorted: Vec<&str> = order.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 4, "each shard exactly once");
        }
    }

    #[test]
    fn keyspace_split_is_roughly_even() {
        let m = members(4);
        let map = ShardMap::new(&m).unwrap();
        let mut counts = vec![0usize; m.len()];
        let sample = keys(4000);
        for k in &sample {
            let owner = map.shard_for(k);
            let idx = m.iter().position(|s| s == owner).unwrap();
            counts[idx] += 1;
        }
        let expected = sample.len() / m.len();
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                c > expected / 2 && c < expected * 2,
                "shard {i} owns {c} of {} keys (expected ~{expected})",
                sample.len()
            );
        }
    }

    #[test]
    fn removing_a_shard_only_moves_its_own_keys() {
        let m = members(3);
        let full = ShardMap::new(&m).unwrap();
        let reduced = ShardMap::new(&m[..2]).unwrap();
        for k in keys(500) {
            let owner = full.shard_for(&k);
            if owner != m[2] {
                assert_eq!(
                    reduced.shard_for(&k),
                    owner,
                    "keys on surviving shards must not move"
                );
            } else {
                // Dead shard's keys land on its ring successor — the
                // second entry of the full map's failover order.
                assert_eq!(reduced.shard_for(&k), full.successors(&k)[1]);
            }
        }
    }

    #[test]
    fn version_tracks_topology() {
        let a = ShardMap::new(&members(2)).unwrap();
        let b = ShardMap::new(&members(3)).unwrap();
        let c = ShardMap::with_vnodes(&members(2), 8).unwrap();
        assert_ne!(a.version(), b.version());
        assert_ne!(a.version(), c.version(), "vnode count is part of the topology");
        let mut rev = members(2);
        rev.reverse();
        let d = ShardMap::new(&rev).unwrap();
        assert_ne!(a.version(), d.version(), "member order is part of the version");
        assert_eq!(
            a.version(),
            ShardMap::new(&members(2)).unwrap().version(),
            "same topology, same version"
        );
    }

    /// Ring placement is part of the on-disk and on-wire contract:
    /// journals, peer lookups and failover orders all assume every
    /// client computes the same owner, so a change to the hash or the
    /// vnode labels must fail here rather than silently move routing.
    #[test]
    fn routing_and_version_are_pinned() {
        let m = members(3);
        let map = ShardMap::new(&m).unwrap();
        assert_eq!(map.version(), 0x0ed4_4ff6_dc01_9669);
        assert_eq!(
            ShardMap::new(&m[..2]).unwrap().version(),
            0xb8b4_9ca6_1afa_9772
        );
        assert_eq!(
            ShardMap::with_vnodes(&m, 8).unwrap().version(),
            0x4f81_d2ff_e2f8_b11a
        );
        for (key, order) in [
            ("gzip/s1/n2000/C4x2w/Focused/0000000000000000", [1, 2, 0]),
            ("mcf/s1/n20000/C8x1w/Proactive/0000000000009e37", [0, 1, 2]),
            (
                "gcc/s7/n100000/C4x2w/FocusedLoc/00000000000279dc",
                [0, 1, 2],
            ),
            (
                "bzip2/s2/n5000/C8x1w/Dependence/deadbeefdeadbeef",
                [2, 1, 0],
            ),
        ] {
            let want: Vec<&str> = order.iter().map(|&i| m[i].as_str()).collect();
            assert_eq!(map.successors(key), want, "failover order of {key}");
            assert_eq!(map.shard_for(key), want[0], "owner of {key}");
        }
    }
}
