//! String interning.
//!
//! File paths, host names and command identifiers repeat across millions
//! of events. Interning maps each distinct string to a dense [`Symbol`]
//! (`u32`), so events stay compact and grouping-by-path is an integer
//! comparison. The [`Interner`] is append-only and thread-safe; parsers
//! running on multiple threads share one interner behind an `Arc`.
//!
//! The table is a hash-once open-addressing index over an append-only
//! string arena: a lookup hashes the key exactly once and probes a
//! flat `Vec<u32>` of slot → symbol entries (empty slots are sentinel),
//! comparing cached hashes before strings. A miss upgrades to the write
//! lock and inserts without rehashing, so the hit path costs one hash +
//! one probe chain under the read lock and the miss path hashes once
//! total. [`Interner::intern_many`] batches a whole slice of keys
//! through a single read pass plus (at most) one write-lock acquisition,
//! which is how the parallel trace parser publishes its thread-local
//! tables. [`LocalInterner`] is the lock-free single-threaded variant
//! those parser workers accumulate into.

use std::fmt;
use std::sync::{Arc, RwLock};

/// A handle to an interned string.
///
/// Symbols are only meaningful together with the [`Interner`] that created
/// them. They are dense (`0..n`), which lets downstream code use them as
/// vector indices.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(pub u32);

impl Symbol {
    /// The index form of this symbol, for direct table lookups.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({})", self.0)
    }
}

/// FxHash (the rustc hash): fast and good enough for short path strings.
#[inline]
fn hash_str(s: &str) -> u64 {
    const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    let mut h: u64 = 0;
    for chunk in s.as_bytes().chunks(8) {
        let mut raw = [0u8; 8];
        raw[..chunk.len()].copy_from_slice(chunk);
        h = (h.rotate_left(5) ^ u64::from_le_bytes(raw)).wrapping_mul(K);
    }
    // Avalanche the tail so short strings spread across the table.
    h ^= h >> 32;
    h.wrapping_mul(K)
}

/// Empty-slot sentinel in the probe table.
const EMPTY: u32 = u32::MAX;

/// The open-addressing core shared by [`Interner`] and [`LocalInterner`]:
/// an append-only arena plus a hash-once probe index.
#[derive(Default)]
struct Core {
    /// Probe table: slot → symbol id (or [`EMPTY`]). Power-of-two sized.
    slots: Vec<u32>,
    /// Arena, indexed by symbol id.
    strings: Vec<Arc<str>>,
    /// Cached hash per symbol id (compared before the string bytes).
    hashes: Vec<u64>,
}

impl Core {
    /// Probes for `s` (pre-hashed). Hit → symbol. Miss → `None`.
    #[inline]
    fn find(&self, hash: u64, s: &str) -> Option<Symbol> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut idx = (hash as usize) & mask;
        loop {
            let slot = self.slots[idx];
            if slot == EMPTY {
                return None;
            }
            let sym = slot as usize;
            if self.hashes[sym] == hash && &*self.strings[sym] == s {
                return Some(Symbol(slot));
            }
            idx = (idx + 1) & mask;
        }
    }

    /// Inserts `s` (pre-hashed, known absent) and returns its new symbol.
    fn insert(&mut self, hash: u64, s: &str) -> Symbol {
        if (self.strings.len() + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let sym = Symbol(self.strings.len() as u32);
        self.strings.push(Arc::from(s));
        self.hashes.push(hash);
        let mask = self.slots.len() - 1;
        let mut idx = (hash as usize) & mask;
        while self.slots[idx] != EMPTY {
            idx = (idx + 1) & mask;
        }
        self.slots[idx] = sym.0;
        sym
    }

    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(16);
        self.slots = vec![EMPTY; cap];
        let mask = cap - 1;
        for (sym, &hash) in self.hashes.iter().enumerate() {
            let mut idx = (hash as usize) & mask;
            while self.slots[idx] != EMPTY {
                idx = (idx + 1) & mask;
            }
            self.slots[idx] = sym as u32;
        }
    }
}

/// An append-only, thread-safe string interner.
///
/// ```
/// use st_model::Interner;
/// let interner = Interner::new();
/// let a = interner.intern("/usr/lib/libc.so.6");
/// let b = interner.intern("/usr/lib/libc.so.6");
/// assert_eq!(a, b);
/// assert_eq!(&*interner.resolve(a), "/usr/lib/libc.so.6");
/// ```
#[derive(Default)]
pub struct Interner {
    inner: RwLock<Core>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty interner already wrapped in an [`Arc`], the form
    /// every [`crate::EventLog`] expects.
    pub fn new_shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Interns `s`, returning the existing symbol if present.
    ///
    /// The key is hashed exactly once; the hit path is a single probe
    /// under the read lock, the miss path re-probes under the write lock
    /// (another writer may have raced) and inserts without rehashing.
    pub fn intern(&self, s: &str) -> Symbol {
        self.intern_inserted(s).0
    }

    /// Interns `s` like [`Interner::intern`], also saying whether this
    /// call inserted it. The flag is `false` when `s` was already
    /// present, or when another thread inserted it first, so concurrent
    /// callers that sum their flags count every new string once.
    pub fn intern_inserted(&self, s: &str) -> (Symbol, bool) {
        let hash = hash_str(s);
        if let Some(sym) = self.read().find(hash, s) {
            return (sym, false);
        }
        let mut inner = self.write();
        if let Some(sym) = inner.find(hash, s) {
            return (sym, false); // raced with another writer
        }
        (inner.insert(hash, s), true)
    }

    /// Interns every key in `keys`, in order, returning their symbols.
    ///
    /// All hits are resolved in one pass under the read lock; the misses
    /// (if any) are inserted under a single write-lock acquisition, in
    /// slice order — so a batch costs at most one write lock no matter
    /// how many new strings it carries. This is the publication path of
    /// the parallel trace parser's thread-local tables.
    pub fn intern_many(&self, keys: &[&str]) -> Vec<Symbol> {
        self.intern_many_inserted(keys).0
    }

    /// [`Interner::intern_many`], also returning how many of the keys
    /// this call inserted (the count [`Interner::intern_inserted`]
    /// flags one key at a time).
    pub fn intern_many_inserted(&self, keys: &[&str]) -> (Vec<Symbol>, usize) {
        let mut inserted = 0;
        let mut out = vec![Symbol(EMPTY); keys.len()];
        let mut misses: Vec<(usize, u64)> = Vec::new();
        {
            let inner = self.read();
            for (i, key) in keys.iter().enumerate() {
                let hash = hash_str(key);
                match inner.find(hash, key) {
                    Some(sym) => out[i] = sym,
                    None => misses.push((i, hash)),
                }
            }
        }
        if !misses.is_empty() {
            let mut inner = self.write();
            for (i, hash) in misses {
                let key = keys[i];
                out[i] = match inner.find(hash, key) {
                    Some(sym) => sym,
                    None => {
                        inserted += 1;
                        inner.insert(hash, key)
                    }
                };
            }
        }
        (out, inserted)
    }

    /// Returns the string behind `sym`.
    ///
    /// # Panics
    /// Panics if `sym` was produced by a different interner and is out of
    /// range.
    pub fn resolve(&self, sym: Symbol) -> Arc<str> {
        Arc::clone(&self.read().strings[sym.index()])
    }

    /// Returns the symbol for `s` if it is already interned.
    pub fn get(&self, s: &str) -> Option<Symbol> {
        self.read().find(hash_str(s), s)
    }

    /// Number of distinct strings interned so far.
    pub fn len(&self) -> usize {
        self.read().strings.len()
    }

    /// Whether no string has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Takes a read-only snapshot for lock-free resolution in hot loops
    /// (e.g. applying a mapping function to every event).
    ///
    /// Symbols interned *after* the snapshot are not visible in it.
    pub fn snapshot(&self) -> InternerSnapshot {
        InternerSnapshot {
            strings: self.read().strings.clone(),
        }
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, Core> {
        self.inner.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, Core> {
        self.inner.write().unwrap_or_else(|e| e.into_inner())
    }
}

impl fmt::Debug for Interner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Interner(len={})", self.len())
    }
}

/// A point-in-time, lock-free view of an [`Interner`].
#[derive(Clone)]
pub struct InternerSnapshot {
    strings: Vec<Arc<str>>,
}

impl InternerSnapshot {
    /// Resolves `sym` without locking.
    ///
    /// # Panics
    /// Panics if `sym` was interned after this snapshot was taken.
    #[inline]
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.strings[sym.index()]
    }

    /// Resolves `sym`, returning `None` when it post-dates the snapshot.
    #[inline]
    pub fn try_resolve(&self, sym: Symbol) -> Option<&str> {
        self.strings.get(sym.index()).map(|s| &**s)
    }

    /// Number of symbols visible in this snapshot.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }
}

/// A single-threaded, lock-free interner with the same dense-symbol
/// semantics as [`Interner`].
///
/// Parallel parser workers accumulate symbols here without touching any
/// shared state, then publish their tables into the shared [`Interner`]
/// in one [`Interner::intern_many`] batch and remap.
#[derive(Default)]
pub struct LocalInterner {
    core: Core,
}

impl LocalInterner {
    /// Creates an empty local interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `s` locally.
    pub fn intern(&mut self, s: &str) -> Symbol {
        let hash = hash_str(s);
        match self.core.find(hash, s) {
            Some(sym) => sym,
            None => self.core.insert(hash, s),
        }
    }

    /// Resolves a locally interned symbol.
    ///
    /// # Panics
    /// Panics when `sym` is out of range.
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.core.strings[sym.index()]
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.core.strings.len()
    }

    /// Whether the interner is empty.
    pub fn is_empty(&self) -> bool {
        self.core.strings.is_empty()
    }
}

impl fmt::Debug for LocalInterner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LocalInterner(len={})", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let i = Interner::new();
        let a = i.intern("/etc/passwd");
        let b = i.intern("/etc/passwd");
        let c = i.intern("/etc/group");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn symbols_are_dense_indices() {
        let i = Interner::new();
        for n in 0..100 {
            let sym = i.intern(&format!("path-{n}"));
            assert_eq!(sym.index(), n);
        }
    }

    #[test]
    fn resolve_roundtrips() {
        let i = Interner::new();
        let sym = i.intern("read");
        assert_eq!(&*i.resolve(sym), "read");
        assert_eq!(i.get("read"), Some(sym));
        assert_eq!(i.get("write"), None);
    }

    #[test]
    fn snapshot_resolves_without_lock() {
        let i = Interner::new();
        let a = i.intern("a");
        let snap = i.snapshot();
        let b = i.intern("b");
        assert_eq!(snap.resolve(a), "a");
        assert_eq!(snap.try_resolve(b), None);
        assert_eq!(i.snapshot().resolve(b), "b");
    }

    #[test]
    fn intern_many_matches_intern() {
        let i = Interner::new();
        let pre = i.intern("/shared");
        let keys = ["/a", "/shared", "/b", "/a", "/c"];
        let syms = i.intern_many(&keys);
        assert_eq!(syms[1], pre);
        assert_eq!(syms[0], syms[3]);
        for (key, sym) in keys.iter().zip(&syms) {
            assert_eq!(&*i.resolve(*sym), *key);
            assert_eq!(i.get(key), Some(*sym));
        }
        // New symbols were assigned in slice order.
        assert!(syms[0] < syms[2] && syms[2] < syms[4]);
        assert_eq!(i.len(), 4);
    }

    #[test]
    fn intern_many_empty_and_all_hits() {
        let i = Interner::new();
        assert!(i.intern_many(&[]).is_empty());
        let a = i.intern("x");
        assert_eq!(i.intern_many(&["x", "x"]), vec![a, a]);
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        let i = Interner::new_shared();
        let mut handles = Vec::new();
        for t in 0..8 {
            let i = std::sync::Arc::clone(&i);
            handles.push(std::thread::spawn(move || {
                let mut syms = Vec::new();
                for n in 0..200 {
                    // Half shared strings, half thread-unique.
                    let s = if n % 2 == 0 {
                        format!("shared-{n}")
                    } else {
                        format!("t{t}-{n}")
                    };
                    syms.push((s.clone(), i.intern(&s)));
                }
                syms
            }));
        }
        let all: Vec<_> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        for (s, sym) in all {
            assert_eq!(&*i.resolve(sym), s.as_str());
        }
    }

    #[test]
    fn inserted_flags_count_each_new_string_once() {
        let i = Interner::new_shared();
        i.intern("pre");
        let handles: Vec<_> = (1..=4)
            .map(|t| {
                let i = std::sync::Arc::clone(&i);
                std::thread::spawn(move || {
                    (0..200)
                        .filter(|n| i.intern_inserted(&format!("k{}", n * t % 150)).1)
                        .count()
                })
            })
            .collect();
        let inserted: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(inserted + 1, i.len());
        let (syms, inserted) = i.intern_many_inserted(&["pre", "new", "new"]);
        assert_eq!((syms[1], inserted), (syms[2], 1));
    }

    #[test]
    fn concurrent_intern_many_is_consistent() {
        let i = Interner::new_shared();
        let mut handles = Vec::new();
        for t in 0..8 {
            let i = std::sync::Arc::clone(&i);
            handles.push(std::thread::spawn(move || {
                let keys: Vec<String> = (0..100)
                    .map(|n| {
                        if n % 2 == 0 {
                            format!("shared-{n}")
                        } else {
                            format!("t{t}-{n}")
                        }
                    })
                    .collect();
                let refs: Vec<&str> = keys.iter().map(|s| s.as_str()).collect();
                let syms = i.intern_many(&refs);
                keys.iter().cloned().zip(syms).collect::<Vec<_>>()
            }));
        }
        let all: Vec<_> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        for (s, sym) in all {
            assert_eq!(&*i.resolve(sym), s.as_str());
        }
    }

    #[test]
    fn local_interner_matches_semantics() {
        let mut l = LocalInterner::new();
        let a = l.intern("/x");
        let b = l.intern("/y");
        assert_eq!(l.intern("/x"), a);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(l.resolve(b), "/y");
        assert_eq!(l.len(), 2);
        assert!(!l.is_empty());
    }

    #[test]
    fn empty_interner() {
        let i = Interner::new();
        assert!(i.is_empty());
        assert!(i.snapshot().is_empty());
    }

    #[test]
    fn growth_preserves_lookup() {
        let i = Interner::new();
        let syms: Vec<Symbol> = (0..5_000).map(|n| i.intern(&format!("k{n}"))).collect();
        for (n, sym) in syms.iter().enumerate() {
            assert_eq!(i.get(&format!("k{n}")), Some(*sym));
        }
    }
}
