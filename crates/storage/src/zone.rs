//! Region zone maps: per-page and per-file summaries of the key intervals
//! and heights a heap file's records span, plus the pushdown predicate
//! ([`ScanFilter`]) that lets scans skip non-qualifying pages before they
//! are read.
//!
//! Zone maps are free statistics: [`crate::heap::HeapWriter`] folds each
//! record's [`crate::record::FixedRecord::bounds_hint`] and
//! [`crate::record::FixedRecord::height_hint`] into one [`ZoneEntry`] per
//! sealed page, and registers the resulting [`FileZones`] with the buffer
//! pool alongside the rest of the heap metadata. A filtered scan consults
//! the map *before* fetching a page; a page whose zone cannot satisfy the
//! filter is skipped at **zero I/O cost** and counted in
//! [`crate::buffer::PoolStats::pages_skipped`].
//!
//! Filters are **necessary conditions only**: a page or record the filter
//! rejects provably cannot satisfy the predicate the caller derived the
//! filter from, while everything admitted is still checked by the caller.
//! Pruning therefore never changes a join's result, only its cost.

/// Summary of the records in one page (or one whole file): the envelope
/// `[lo, hi]` of their key intervals and the range of their heights.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZoneEntry {
    /// Minimum interval start (`min region_start` for PBiTree elements).
    pub lo: u64,
    /// Maximum interval end (`max region_end`).
    pub hi: u64,
    /// Minimum record height.
    pub min_h: u32,
    /// Maximum record height.
    pub max_h: u32,
}

impl ZoneEntry {
    /// A zone covering exactly one record's interval and height.
    #[inline]
    pub fn of(lo: u64, hi: u64, h: u32) -> Self {
        ZoneEntry {
            lo,
            hi,
            min_h: h,
            max_h: h,
        }
    }

    /// Widens this zone to also cover `(lo, hi, h)`.
    #[inline]
    pub fn fold(&mut self, lo: u64, hi: u64, h: u32) {
        self.lo = self.lo.min(lo);
        self.hi = self.hi.max(hi);
        self.min_h = self.min_h.min(h);
        self.max_h = self.max_h.max(h);
    }

    /// Whether a record with hints `(lo, hi, h)` could sit on a page with
    /// this zone — the point-lookup counterpart of
    /// [`ScanFilter::admits_zone`], used by logged deletes to locate their
    /// record's page without reading the others.
    #[inline]
    pub fn covers(&self, lo: u64, hi: u64, h: u32) -> bool {
        self.lo <= lo && hi <= self.hi && self.min_h <= h && h <= self.max_h
    }
}

/// The zone map of one heap file: one optional [`ZoneEntry`] per page, in
/// page order. A page has no entry when some record on it provided no
/// hints — such pages are never skipped (no information, no pruning).
#[derive(Debug, Clone, Default)]
pub struct FileZones {
    pages: Vec<Option<ZoneEntry>>,
}

impl FileZones {
    /// Appends the zone of the next sealed page.
    pub fn push(&mut self, zone: Option<ZoneEntry>) {
        self.pages.push(zone);
    }

    /// The zone of page `page`, if the page has one.
    #[inline]
    pub fn page(&self, page: u32) -> Option<&ZoneEntry> {
        self.pages.get(page as usize).and_then(|z| z.as_ref())
    }

    /// Number of pages covered (equals the file's page count).
    #[inline]
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// Whether no pages were recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Whether at least one page carries a zone — registration is pointless
    /// otherwise.
    pub fn any(&self) -> bool {
        self.pages.iter().any(|z| z.is_some())
    }

    /// Replaces the zone of page `page`, extending the map with untracked
    /// (`None`) pages if the file grew past its recorded length. Used by
    /// the mutable heap path: a delete *rebuilds* the page's zone from the
    /// surviving records (exact), an insert of a hintless record clears it
    /// (a `None` page is never skipped, so pruning stays correct).
    pub fn set_page(&mut self, page: u32, zone: Option<ZoneEntry>) {
        let idx = page as usize;
        if idx >= self.pages.len() {
            self.pages.resize(idx + 1, None);
        }
        self.pages[idx] = zone;
    }

    /// Widens page `page`'s zone to also cover `(lo, hi, h)` — the
    /// insert-side zone maintenance for a page that already holds records.
    /// A page without a zone, recorded or beyond the recorded length, stays
    /// without one: the records already on it are unknown here, and an
    /// entry narrower than the page's contents would make pruning scans
    /// and zone-guided deletes miss them.
    pub fn widen(&mut self, page: u32, lo: u64, hi: u64, h: u32) {
        if let Some(Some(z)) = self.pages.get_mut(page as usize) {
            z.fold(lo, hi, h);
        }
    }
}

/// A pushdown predicate evaluated against zone maps (page granularity) and
/// record hints (record granularity) inside [`crate::heap::HeapScan`].
///
/// Every variant is a *necessary* condition for the caller's actual join
/// predicate, never a sufficient one: rejected pages and records provably
/// cannot produce output, admitted ones are re-checked by the operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScanFilter {
    /// No filtering: every page is read, every record returned.
    #[default]
    All,
    /// Admit only records whose key interval overlaps `[start, end]`.
    RegionOverlap {
        /// Inclusive window start.
        start: u64,
        /// Inclusive window end.
        end: u64,
    },
    /// Admit only records whose height lies in `[min, max]`.
    HeightRange {
        /// Inclusive minimum height.
        min: u32,
        /// Inclusive maximum height.
        max: u32,
    },
    /// Conjunction of [`ScanFilter::RegionOverlap`] and
    /// [`ScanFilter::HeightRange`] (built by [`ScanFilter::and`]).
    RegionAndHeight {
        /// Inclusive window start.
        start: u64,
        /// Inclusive window end.
        end: u64,
        /// Inclusive minimum height.
        min: u32,
        /// Inclusive maximum height.
        max: u32,
    },
}

impl ScanFilter {
    /// Whether this filter admits everything (the scan fast-path check).
    #[inline]
    pub fn is_all(&self) -> bool {
        matches!(self, ScanFilter::All)
    }

    /// The region window this filter constrains, if any.
    #[inline]
    fn window(&self) -> Option<(u64, u64)> {
        match *self {
            ScanFilter::RegionOverlap { start, end }
            | ScanFilter::RegionAndHeight { start, end, .. } => Some((start, end)),
            _ => None,
        }
    }

    /// The height range this filter constrains, if any.
    #[inline]
    fn heights(&self) -> Option<(u32, u32)> {
        match *self {
            ScanFilter::HeightRange { min, max } | ScanFilter::RegionAndHeight { min, max, .. } => {
                Some((min, max))
            }
            _ => None,
        }
    }

    /// Conjunction of two filters. Overlapping constraints intersect, so
    /// the result rejects exactly the union of what either side rejects.
    pub fn and(self, other: ScanFilter) -> ScanFilter {
        let window = match (self.window(), other.window()) {
            (Some((s1, e1)), Some((s2, e2))) => Some((s1.max(s2), e1.min(e2))),
            (w, None) | (None, w) => w,
        };
        let heights = match (self.heights(), other.heights()) {
            (Some((l1, h1)), Some((l2, h2))) => Some((l1.max(l2), h1.min(h2))),
            (h, None) | (None, h) => h,
        };
        match (window, heights) {
            (None, None) => ScanFilter::All,
            (Some((start, end)), None) => ScanFilter::RegionOverlap { start, end },
            (None, Some((min, max))) => ScanFilter::HeightRange { min, max },
            (Some((start, end)), Some((min, max))) => ScanFilter::RegionAndHeight {
                start,
                end,
                min,
                max,
            },
        }
    }

    /// Disjunction of two filters, as a single bounding envelope. The
    /// result admits everything either side admits — the contract a shared
    /// scan needs to serve several queries from one pass — but stays a
    /// plain envelope rather than a filter list, so it may also admit
    /// records in the gap *between* the operands' windows (each query
    /// re-checks its own predicate; pruning only ever changes cost).
    ///
    /// A dimension is constrained in the union only when **both** operands
    /// constrain it: if either side admits every region (or every height),
    /// so must the union. An operand that is an empty set contributes
    /// nothing and the other side is returned unchanged.
    pub fn union(self, other: ScanFilter) -> ScanFilter {
        if self.is_empty_set() {
            return other;
        }
        if other.is_empty_set() {
            return self;
        }
        let window = match (self.window(), other.window()) {
            (Some((s1, e1)), Some((s2, e2))) => Some((s1.min(s2), e1.max(e2))),
            _ => None,
        };
        let heights = match (self.heights(), other.heights()) {
            (Some((l1, h1)), Some((l2, h2))) => Some((l1.min(l2), h1.max(h2))),
            _ => None,
        };
        match (window, heights) {
            (None, None) => ScanFilter::All,
            (Some((start, end)), None) => ScanFilter::RegionOverlap { start, end },
            (None, Some((min, max))) => ScanFilter::HeightRange { min, max },
            (Some((start, end)), Some((min, max))) => ScanFilter::RegionAndHeight {
                start,
                end,
                min,
                max,
            },
        }
    }

    /// Whether this filter describes an empty set — an inverted window or
    /// height range, as produced by [`ScanFilter::and`] over disjoint
    /// constraints. An empty filter admits nothing at all.
    #[inline]
    fn is_empty_set(&self) -> bool {
        self.window().is_some_and(|(s, e)| s > e)
            || self.heights().is_some_and(|(min, max)| min > max)
    }

    /// Whether a page with zone `z` could hold a qualifying record. Pages
    /// without a zone are always admitted by the caller.
    #[inline]
    pub fn admits_zone(&self, z: &ZoneEntry) -> bool {
        if self.is_empty_set() {
            return false;
        }
        if let Some((start, end)) = self.window() {
            if z.lo > end || z.hi < start {
                return false;
            }
        }
        if let Some((min, max)) = self.heights() {
            if z.min_h > max || z.max_h < min {
                return false;
            }
        }
        true
    }

    /// Whether a record with the given hints qualifies. Missing hints admit
    /// (no information, no filtering — the operator re-checks anyway),
    /// except under an empty filter, which provably nothing satisfies.
    #[inline]
    pub fn admits_record(&self, bounds: Option<(u64, u64)>, height: Option<u32>) -> bool {
        if self.is_empty_set() {
            return false;
        }
        if let (Some((start, end)), Some((lo, hi))) = (self.window(), bounds) {
            if lo > end || hi < start {
                return false;
            }
        }
        if let (Some((min, max)), Some(h)) = (self.heights(), height) {
            if h < min || h > max {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zone(lo: u64, hi: u64, min_h: u32, max_h: u32) -> ZoneEntry {
        ZoneEntry {
            lo,
            hi,
            min_h,
            max_h,
        }
    }

    #[test]
    fn zone_fold_widens() {
        let mut z = ZoneEntry::of(10, 20, 3);
        z.fold(5, 12, 7);
        assert_eq!(z, zone(5, 20, 3, 7));
        let mut a = ZoneEntry::of(100, 200, 1);
        a.fold(z.lo, z.hi, z.min_h);
        a.fold(z.lo, z.hi, z.max_h);
        assert_eq!(a, zone(5, 200, 1, 7));
        // Covering is containment in both dimensions, ends included.
        assert!(a.covers(5, 200, 1) && a.covers(50, 60, 7));
        assert!(!a.covers(4, 60, 3) && !a.covers(50, 201, 3));
        assert!(!a.covers(50, 60, 0) && !a.covers(50, 60, 8));
    }

    #[test]
    fn file_zone_merges_pages() {
        let mut fz = FileZones::default();
        fz.push(Some(ZoneEntry::of(10, 20, 2)));
        fz.push(None);
        fz.push(Some(ZoneEntry::of(1, 5, 6)));
        assert_eq!(fz.len(), 3);
        assert!(fz.any());
        assert!(fz.page(1).is_none());
        assert_eq!(fz.page(0).unwrap().lo, 10);
        assert!(fz.page(9).is_none());
    }

    #[test]
    fn set_page_and_widen_maintain_the_map() {
        let mut fz = FileZones::default();
        fz.push(Some(ZoneEntry::of(10, 20, 2)));
        // Widening an existing zone folds the new record in.
        fz.widen(0, 5, 25, 4);
        assert_eq!(*fz.page(0).unwrap(), zone(5, 25, 2, 4));
        // A page past the recorded length holds records the map never
        // saw: widening must not invent a zone narrower than its contents.
        fz.widen(3, 100, 200, 1);
        assert!(fz.page(3).is_none());
        fz.set_page(3, Some(ZoneEntry::of(100, 200, 1)));
        assert_eq!(fz.len(), 4);
        assert!(fz.page(1).is_none());
        // A page whose zone was cleared (hintless record) stays cleared
        // under further widening: no information, no pruning.
        fz.set_page(0, None);
        fz.widen(0, 0, 1, 0);
        assert!(fz.page(0).is_none());
        // Rebuild-on-delete replaces the entry exactly.
        fz.set_page(3, Some(ZoneEntry::of(150, 160, 1)));
        assert_eq!(*fz.page(3).unwrap(), zone(150, 160, 1, 1));
    }

    #[test]
    fn filter_and_intersects() {
        let r = ScanFilter::RegionOverlap { start: 10, end: 50 };
        let h = ScanFilter::HeightRange { min: 2, max: 5 };
        assert_eq!(ScanFilter::All.and(ScanFilter::All), ScanFilter::All);
        assert_eq!(r.and(ScanFilter::All), r);
        assert_eq!(
            r.and(h),
            ScanFilter::RegionAndHeight {
                start: 10,
                end: 50,
                min: 2,
                max: 5
            }
        );
        // Overlapping windows intersect.
        assert_eq!(
            r.and(ScanFilter::RegionOverlap { start: 30, end: 99 }),
            ScanFilter::RegionOverlap { start: 30, end: 50 }
        );
    }

    #[test]
    fn filter_union_is_bounding_envelope() {
        let r1 = ScanFilter::RegionOverlap { start: 10, end: 50 };
        let r2 = ScanFilter::RegionOverlap {
            start: 100,
            end: 200,
        };
        // Two windows widen to their envelope (the gap is admitted too —
        // the union is a necessary condition, not an exact disjunction).
        assert_eq!(
            r1.union(r2),
            ScanFilter::RegionOverlap {
                start: 10,
                end: 200
            }
        );
        // A side with no window constraint unconstrains the union.
        assert_eq!(r1.union(ScanFilter::All), ScanFilter::All);
        assert_eq!(
            r1.union(ScanFilter::HeightRange { min: 2, max: 5 }),
            ScanFilter::All
        );
        // Height ranges widen dimension-wise when both sides have both.
        let f1 = r1.and(ScanFilter::HeightRange { min: 2, max: 5 });
        let f2 = r2.and(ScanFilter::HeightRange { min: 0, max: 3 });
        assert_eq!(
            f1.union(f2),
            ScanFilter::RegionAndHeight {
                start: 10,
                end: 200,
                min: 0,
                max: 5
            }
        );
        // An empty-set operand is an identity.
        let dead = ScanFilter::RegionOverlap { start: 60, end: 10 };
        assert_eq!(dead.union(r1), r1);
        assert_eq!(r1.union(dead), r1);
        // The union admits every zone either operand admits.
        for z in [
            ZoneEntry::of(0, 12, 3),
            ZoneEntry::of(150, 160, 1),
            ZoneEntry::of(60, 70, 2),
        ] {
            if f1.admits_zone(&z) || f2.admits_zone(&z) {
                assert!(f1.union(f2).admits_zone(&z));
            }
        }
    }

    #[test]
    fn filter_union_empty_seed_folds_like_a_set_union() {
        // The shared-scan / shard-envelope composition seed: an inverted
        // window admits nothing and is the identity of `union`, so folding
        // any filter list from it yields exactly their envelope.
        let seed = ScanFilter::RegionOverlap { start: 1, end: 0 };
        assert!(!seed.admits_zone(&ZoneEntry::of(1, u64::MAX, 0)));
        assert!(!seed.admits_record(None, None));
        // Folding nothing stays empty; the empty seed never widens a fold.
        assert_eq!(seed.union(seed), seed);
        let parts = [
            ScanFilter::RegionOverlap { start: 40, end: 60 },
            ScanFilter::RegionOverlap { start: 5, end: 9 },
            ScanFilter::RegionOverlap {
                start: 200,
                end: 300,
            },
        ];
        let folded = parts.iter().fold(seed, |acc, &f| acc.union(f));
        assert_eq!(folded, ScanFilter::RegionOverlap { start: 5, end: 300 });
        // An inverted *height* range is an empty set and an identity too.
        let dead_h = ScanFilter::HeightRange { min: 9, max: 2 };
        assert!(!dead_h.admits_record(None, Some(5)));
        assert_eq!(dead_h.union(parts[0]), parts[0]);
        assert_eq!(parts[0].union(dead_h), parts[0]);
    }

    #[test]
    fn filter_union_disjoint_regions_and_height_widening() {
        // Disjoint shard envelopes: the union spans both plus the gap
        // between them (it is a bounding envelope, never a filter list).
        let lo_shard = ScanFilter::RegionOverlap { start: 1, end: 511 };
        let hi_shard = ScanFilter::RegionOverlap {
            start: 512,
            end: 1023,
        };
        let u = lo_shard.union(hi_shard);
        assert_eq!(
            u,
            ScanFilter::RegionOverlap {
                start: 1,
                end: 1023
            }
        );
        assert!(u.admits_record(Some((511, 512)), None), "gap is admitted");
        // Height ranges widen to cover both operands, ends included.
        let h1 = ScanFilter::HeightRange { min: 3, max: 3 };
        let h2 = ScanFilter::HeightRange { min: 7, max: 9 };
        assert_eq!(h1.union(h2), ScanFilter::HeightRange { min: 3, max: 9 });
        assert_eq!(h2.union(h1), ScanFilter::HeightRange { min: 3, max: 9 });
        for h in [3u32, 5, 9] {
            assert!(h1.union(h2).admits_record(None, Some(h)));
        }
        assert!(h1.union(h2).admits_record(None, Some(4)), "gap height");
    }

    /// Property sweep: for random operand pairs, the union admits every
    /// zone and record either operand admits, and union with the empty
    /// seed changes nothing. (`union` must stay a sound envelope — a page
    /// it rejects can match no contributing query.)
    #[test]
    fn filter_union_property_admits_superset() {
        let mut x = 0x5EED_CAFE_0123u64;
        let mut rnd = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mk = |rnd: &mut dyn FnMut() -> u64| {
            let a = rnd() % 1000;
            let b = rnd() % 1000;
            let (lo, hi) = (rnd() % 12, rnd() % 12);
            match rnd() % 4 {
                0 => ScanFilter::All,
                1 => ScanFilter::RegionOverlap { start: a, end: b },
                2 => ScanFilter::HeightRange {
                    min: lo as u32,
                    max: hi as u32,
                },
                _ => ScanFilter::RegionAndHeight {
                    start: a,
                    end: b,
                    min: lo as u32,
                    max: hi as u32,
                },
            }
        };
        let seed = ScanFilter::RegionOverlap { start: 1, end: 0 };
        for _ in 0..2000 {
            let f1 = mk(&mut rnd);
            let f2 = mk(&mut rnd);
            let u = f1.union(f2);
            // Identity holds structurally for non-empty operands; an empty
            // operand may come back as the (equally empty) seed instead.
            if f1.admits_record(Some((0, u64::MAX)), None) {
                assert_eq!(seed.union(f1), f1);
                assert_eq!(f1.union(seed), f1);
            } else {
                assert!(!seed.union(f1).admits_record(Some((0, u64::MAX)), None));
            }
            for _ in 0..8 {
                let (zl, zh) = (rnd() % 1100, rnd() % 1100);
                let z = zone(zl.min(zh), zl.max(zh), (rnd() % 12) as u32, 12);
                if f1.admits_zone(&z) || f2.admits_zone(&z) {
                    assert!(u.admits_zone(&z), "{f1:?} ∪ {f2:?} rejected {z:?}");
                }
                let bounds = Some((z.lo, z.hi));
                let h = Some(z.min_h);
                if f1.admits_record(bounds, h) || f2.admits_record(bounds, h) {
                    assert!(u.admits_record(bounds, h));
                }
            }
        }
    }

    #[test]
    fn filter_admits_zone_is_interval_overlap() {
        let f = ScanFilter::RegionOverlap { start: 10, end: 50 };
        assert!(f.admits_zone(&ZoneEntry::of(50, 60, 0)));
        assert!(f.admits_zone(&ZoneEntry::of(0, 10, 0)));
        assert!(!f.admits_zone(&ZoneEntry::of(51, 60, 0)));
        assert!(!f.admits_zone(&ZoneEntry::of(0, 9, 0)));
        let f = ScanFilter::HeightRange { min: 2, max: 4 };
        assert!(f.admits_zone(&zone(0, 0, 0, 4)));
        assert!(!f.admits_zone(&zone(0, 0, 0, 1)));
        // An empty-intersection conjunction admits nothing.
        let dead = ScanFilter::RegionOverlap { start: 60, end: 10 };
        assert!(!dead.admits_zone(&zone(0, u64::MAX, 0, 63)));
    }

    #[test]
    fn filter_admits_record_missing_hints_pass() {
        let f = ScanFilter::RegionAndHeight {
            start: 10,
            end: 50,
            min: 2,
            max: 4,
        };
        assert!(f.admits_record(None, None));
        assert!(f.admits_record(Some((40, 60)), Some(3)));
        assert!(!f.admits_record(Some((51, 60)), Some(3)));
        assert!(!f.admits_record(Some((40, 60)), Some(5)));
        assert!(ScanFilter::All.admits_record(Some((0, 1)), Some(63)));
    }
}
