//! Abstract heap objects: a heap context paired with a (representative)
//! allocation site.
//!
//! Object ids come from a pluggable [`Numbering`]: discovery order
//! (dense, the historical scheme) or class-hierarchy order
//! ([`crate::numbering::ObjNumbering`] — sparse ids laid out so each
//! type's subtype cone is a few contiguous runs, which is what lets the
//! solver compile cast masks down to [`pts::IdRanges`]). Either way the
//! table keeps the id ↔ discovery-slot permutation, so results can be
//! canonicalized independently of the numbering in effect.

use jir::{AllocId, Program, TypeId};

use crate::context::CtxId;
use crate::numbering::ObjNumbering;
use crate::util::FastMap;

/// Sentinel slot for ids inside unfilled lane/chunk slack.
const NO_SLOT: u32 = u32::MAX;

/// How a run's object ids are laid out (see [`crate::numbering`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Numbering {
    /// Dense ids in interning (discovery) order — the canonical
    /// numbering golden fingerprints are expressed in.
    Discovery,
    /// Sparse ids in class-hierarchy preorder lanes, so subtype cones
    /// compile to short range lists.
    #[default]
    Hierarchy,
}

/// An interned abstract heap object `(heap context, allocation site)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjId(pub(crate) u32);

impl ObjId {
    /// Returns the id as an index into the (possibly sparse) id space.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Debug for ObjId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "obj#{}", self.0)
    }
}

/// Object ids index the numbering's id space, so points-to sets over
/// them can use the hybrid vec/chunk representation from the `pts`
/// crate (a sparse set stores one chunk per 64-id word its objects
/// fall in; the hierarchy numbering clusters related objects, so few
/// words hold many of them).
impl pts::Elem for ObjId {
    fn into_index(self) -> usize {
        self.0 as usize
    }
    fn from_index(i: usize) -> Self {
        ObjId(u32::try_from(i).expect("object index fits u32"))
    }
}

/// Hash-consing arena of abstract heap objects.
///
/// Under the allocation-site abstraction each entry pairs an allocation
/// site with a heap context; under a merging abstraction (allocation-type
/// or Mahjong) the allocation site stored here is already the
/// representative of its equivalence class.
#[derive(Debug, Default)]
pub struct ObjTable {
    /// Hierarchy-mode id allocator; `None` = discovery mode (id ==
    /// discovery slot).
    numbering: Option<ObjNumbering>,
    /// Id → discovery slot ([`NO_SLOT`] for slack ids never handed
    /// out). Identity in discovery mode. Empty for a restored table
    /// whose id space is too wide to index directly (see `wide`).
    slot_of: Vec<u32>,
    /// Discovery slots in ascending id order, searched by bisection:
    /// the id → slot map of a restored table whose id space fails
    /// [`crate::table::dense_enough`] for its object count. Empty
    /// otherwise.
    wide: Vec<u32>,
    /// The id space of a `wide` table (0 otherwise).
    wide_space: usize,
    /// Discovery slot → id, in interning order.
    ids: Vec<ObjId>,
    hctxs: Vec<CtxId>,
    allocs: Vec<AllocId>,
    types: Vec<TypeId>,
    map: FastMap<(CtxId, AllocId), ObjId>,
}

impl ObjTable {
    /// Creates an empty table in discovery (dense-id) mode.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty table with the given numbering for `program`.
    pub fn with_numbering(program: &Program, numbering: Numbering) -> Self {
        ObjTable {
            numbering: match numbering {
                Numbering::Discovery => None,
                Numbering::Hierarchy => Some(ObjNumbering::new(program)),
            },
            ..Self::default()
        }
    }

    /// Interns the object `(hctx, alloc)`.
    pub fn intern(&mut self, hctx: CtxId, alloc: AllocId, program: &Program) -> ObjId {
        if let Some(&id) = self.map.get(&(hctx, alloc)) {
            return id;
        }
        debug_assert!(!self.is_wide(), "a restored wide table interns no new object");
        let slot = u32::try_from(self.ids.len()).expect("too many objects");
        let ty = program.alloc(alloc).ty();
        let id = match &mut self.numbering {
            None => ObjId(slot),
            Some(num) => ObjId(num.assign(ty)),
        };
        if self.slot_of.len() <= id.index() {
            self.slot_of.resize(id.index() + 1, NO_SLOT);
        }
        self.slot_of[id.index()] = slot;
        self.ids.push(id);
        self.hctxs.push(hctx);
        self.allocs.push(alloc);
        self.types.push(ty);
        self.map.insert((hctx, alloc), id);
        id
    }

    /// Rebuilds a table from per-slot rows in discovery order plus the
    /// id-space bound (snapshot restore). The restored table is a
    /// read-only view: it carries no [`ObjNumbering`] allocator, so it
    /// answers every query but cannot intern new objects under the
    /// hierarchy layout (`intern` of a known `(hctx, alloc)` pair still
    /// works; an unknown pair would fall back to dense ids, and a table
    /// with a wide id space takes none). Rejects
    /// ids outside `id_space`, duplicate ids, and duplicate
    /// `(hctx, alloc)` pairs.
    ///
    /// The id → slot map is a table indexed by id only when `id_space`
    /// passes [`crate::table::dense_enough`] for the object count;
    /// otherwise it is the slots sorted by id, so a file's id space
    /// never sizes an allocation. Solver runs land on both sides: an
    /// allocation-site heap uses about 1.5 ids per object, but an
    /// allocation-type heap keeps a lane per type as wide as the type's
    /// static site count (pmd@6 ci: 4,499 ids for 86 objects).
    pub(crate) fn from_slots(
        rows: Vec<(ObjId, CtxId, AllocId, TypeId)>,
        id_space: usize,
    ) -> Result<Self, String> {
        let dense = crate::table::dense_enough(id_space, rows.len());
        let mut table = ObjTable {
            slot_of: if dense { vec![NO_SLOT; id_space] } else { Vec::new() },
            wide_space: if dense { 0 } else { id_space },
            ..Self::default()
        };
        for (slot, (id, hctx, alloc, ty)) in rows.into_iter().enumerate() {
            if id.index() >= id_space {
                return Err(format!("object id {id:?} outside id space {id_space}"));
            }
            if dense {
                if table.slot_of[id.index()] != NO_SLOT {
                    return Err(format!("object id {id:?} assigned twice"));
                }
                table.slot_of[id.index()] = slot as u32;
            }
            if table.map.insert((hctx, alloc), id).is_some() {
                return Err(format!("object ({hctx:?}, {alloc:?}) interned twice"));
            }
            table.ids.push(id);
            table.hctxs.push(hctx);
            table.allocs.push(alloc);
            table.types.push(ty);
        }
        if !dense {
            let mut wide: Vec<u32> = (0..table.ids.len() as u32).collect();
            wide.sort_unstable_by_key(|&s| table.ids[s as usize]);
            let id = |s: u32| table.ids[s as usize];
            if let Some(w) = wide.windows(2).find(|w| id(w[0]) == id(w[1])) {
                return Err(format!("object id {:?} assigned twice", id(w[0])));
            }
            table.wide = wide;
        }
        Ok(table)
    }

    /// Whether the id → slot map is the sorted `wide` list rather than
    /// a table indexed by id (a restored table with a wide id space).
    pub(crate) fn is_wide(&self) -> bool {
        self.wide_space != 0
    }

    /// Whether `raw` names an id this table actually handed out (ids
    /// inside hierarchy lane/chunk slack do not; snapshot restore uses
    /// this to validate decoded set elements before any query can
    /// reach [`ObjTable::slot`]).
    pub(crate) fn has_id(&self, raw: u32) -> bool {
        match self.slot_of.get(raw as usize) {
            Some(&s) => s != NO_SLOT,
            None => self.wide_slot(raw).is_some(),
        }
    }

    fn slot(&self, obj: ObjId) -> usize {
        match self.slot_of.get(obj.index()) {
            Some(&s) => {
                debug_assert_ne!(s, NO_SLOT, "id {obj:?} was never handed out");
                s as usize
            }
            None => self.wide_slot(obj.0).expect("object id was never handed out"),
        }
    }

    /// The slot of `raw` in a `wide` table.
    #[cold]
    fn wide_slot(&self, raw: u32) -> Option<usize> {
        let at = self.wide.binary_search_by_key(&raw, |&s| self.ids[s as usize].0).ok()?;
        Some(self.wide[at] as usize)
    }

    /// Returns the heap context of an object.
    pub fn heap_context(&self, obj: ObjId) -> CtxId {
        self.hctxs[self.slot(obj)]
    }

    /// Returns the (representative) allocation site of an object.
    pub fn alloc(&self, obj: ObjId) -> AllocId {
        self.allocs[self.slot(obj)]
    }

    /// Returns the runtime type of an object.
    pub fn ty(&self, obj: ObjId) -> TypeId {
        self.types[self.slot(obj)]
    }

    /// Canonical (discovery-order) index of `obj`: the id it would
    /// carry under [`Numbering::Discovery`]. Together with
    /// [`ObjTable::by_discovery_index`] this is the old↔new id
    /// permutation exposed through `AnalysisResult`.
    pub fn discovery_index(&self, obj: ObjId) -> u32 {
        self.slot(obj) as u32
    }

    /// The object interned `i`-th (inverse of
    /// [`ObjTable::discovery_index`]).
    pub fn by_discovery_index(&self, i: u32) -> ObjId {
        self.ids[i as usize]
    }

    /// Returns the number of distinct abstract objects created.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// One past the largest id handed out — the points-to universe
    /// size, including lane/chunk slack in hierarchy mode.
    pub fn id_space(&self) -> usize {
        self.slot_of.len().max(self.wide_space)
    }

    /// Returns `true` if no objects have been created.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Iterates over all object ids, in discovery order.
    pub fn iter(&self) -> impl Iterator<Item = ObjId> + '_ {
        self.ids.iter().copied()
    }
}
