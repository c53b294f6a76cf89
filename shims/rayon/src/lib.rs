//! A small persistent thread pool behind the rayon parallel-iterator API.
//!
//! The workspace is written against rayon's `prelude` (`par_iter`,
//! `par_iter_mut`, `into_par_iter`, `map`, `map_init`, `enumerate`,
//! `collect`, `for_each`, `for_each_init`) plus `join` and
//! `current_num_threads`. This shim implements exactly that surface,
//! with rayon's signatures, over indexed sources only (slices, `Vec` and
//! `usize` ranges), so every call site compiles unchanged against the
//! real crate.
//!
//! Execution model:
//!
//! * The pool has `available_parallelism() − 1` helper threads, started
//!   on the first call that can use them. `available_parallelism`
//!   follows the process's CPU affinity, so under `taskset -c 0` the pool
//!   has no helper and every call runs on the caller.
//! * A call splits its index range into chunks that the caller and every
//!   helper claim from one atomic counter, so uneven items (the cells of
//!   an anti-diagonal level) balance dynamically. `collect` writes each
//!   result into its own slot of the output vector: order is the input
//!   order and no chunk allocates.
//! * A call runs inline on the calling thread when it is nested inside
//!   another parallel call, when another call is in progress, or when
//!   its input is shorter than `INLINE_BELOW` items. Independent
//!   callers (several service workers) therefore never wait on each
//!   other and cannot deadlock.
//! * Two overlapping calls open a `CONTENDED` window: for its length
//!   every call runs inline and idle helpers park without spinning, so
//!   two busy callers on two cores each keep a core. The pool does not
//!   see its callers' serial work, so it cannot rule oversubscription
//!   out: a helper still runs beside two callers while the call it
//!   joined finishes, and after a window lapses until two calls overlap
//!   again.
//! * A panic in any chunk stops further claims and resumes on the caller
//!   once every participant has left the call.
//! * After a call, helpers spin for `SPIN` waiting for the next one (so
//!   back-to-back levels of one sweep skip a futex wake), then park.

mod pool;

/// The rayon prelude: the conversion traits, [`ParallelIterator`] and
/// [`FromParallelIterator`].
///
/// [`ParallelIterator`]: iter::ParallelIterator
/// [`FromParallelIterator`]: iter::FromParallelIterator
pub mod prelude {
    pub use crate::iter::{
        FromParallelIterator, IntoParallelIterator, IntoParallelRefIterator,
        IntoParallelRefMutIterator, ParallelIterator,
    };
}

pub mod iter {
    //! Indexed parallel iterators: sources, adapters and the terminal
    //! operations that hand them to the pool.

    use crate::pool;
    use std::marker::PhantomData;
    use std::mem::ManuallyDrop;
    use std::ops::Range;

    /// A parallel iterator over a known number of items, each addressed
    /// by its index.
    ///
    /// Every iterator of this shim is indexed, so `enumerate`, which
    /// rayon puts on `IndexedParallelIterator`, lives here.
    pub trait ParallelIterator: Sized + Sync {
        /// Item type produced by the iterator.
        type Item: Send;

        /// Number of items.
        fn len(&self) -> usize;

        /// Whether the iterator yields no item.
        fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Calls `sink(i, item_i)` for every index `i` of every range in
        /// `ranges`, in order.
        ///
        /// # Safety
        ///
        /// Across all calls on one iterator (concurrent or not), every
        /// index may be handed out at most once: sources move or
        /// mutably borrow item `i` when they yield it.
        #[doc(hidden)]
        unsafe fn drive<R, S>(&self, ranges: R, sink: S)
        where
            R: Iterator<Item = Range<usize>>,
            S: FnMut(usize, Self::Item);

        /// Applies `map_op` to every item.
        fn map<R, F>(self, map_op: F) -> Map<Self, F>
        where
            F: Fn(Self::Item) -> R + Sync + Send,
            R: Send,
        {
            Map {
                base: self,
                f: map_op,
            }
        }

        /// `map` with scratch state that `init` makes once per thread
        /// taking part in the call.
        fn map_init<T, R, INIT, F>(self, init: INIT, map_op: F) -> MapInit<Self, INIT, F>
        where
            INIT: Fn() -> T + Sync + Send,
            F: Fn(&mut T, Self::Item) -> R + Sync + Send,
            R: Send,
        {
            MapInit {
                base: self,
                init,
                f: map_op,
            }
        }

        /// Pairs every item with its index.
        fn enumerate(self) -> Enumerate<Self> {
            Enumerate { base: self }
        }

        /// Collects the items, in input order.
        fn collect<C>(self) -> C
        where
            C: FromParallelIterator<Self::Item>,
        {
            C::from_par_iter(self)
        }

        /// Calls `op` on every item.
        fn for_each<F>(self, op: F)
        where
            F: Fn(Self::Item) + Sync + Send,
        {
            self.for_each_init(|| (), move |(), item| op(item));
        }

        /// `for_each` with scratch state that `init` makes once per
        /// thread taking part in the call.
        fn for_each_init<T, INIT, F>(self, init: INIT, op: F)
        where
            INIT: Fn() -> T + Sync + Send,
            F: Fn(&mut T, Self::Item) + Sync + Send,
        {
            pool::run(self.len(), &|chunks| {
                let mut state = init();
                // SAFETY: the pool hands out every index once.
                unsafe { self.drive(chunks, |_, item| op(&mut state, item)) }
            });
        }
    }

    /// Builds a collection from a parallel iterator (rayon's
    /// `FromParallelIterator`).
    pub trait FromParallelIterator<T: Send> {
        /// Consumes `par_iter` into `Self`.
        fn from_par_iter<I>(par_iter: I) -> Self
        where
            I: IntoParallelIterator<Item = T>;
    }

    /// The output pointer of a parallel `collect`; each participant
    /// writes distinct slots.
    struct Slots<T>(*mut T);

    // SAFETY: participants write disjoint slots of one allocation, and
    // the items themselves are `Send`.
    unsafe impl<T: Send> Sync for Slots<T> {}

    impl<T> Slots<T> {
        /// Writes slot `i`.
        ///
        /// # Safety
        ///
        /// `i` is in bounds and no other thread writes slot `i`.
        unsafe fn write(&self, i: usize, item: T) {
            self.0.add(i).write(item);
        }
    }

    impl<T: Send> FromParallelIterator<T> for Vec<T> {
        fn from_par_iter<I>(par_iter: I) -> Self
        where
            I: IntoParallelIterator<Item = T>,
        {
            let iter = par_iter.into_par_iter();
            let len = iter.len();
            let mut out = Vec::with_capacity(len);
            let slots = Slots(out.as_mut_ptr());
            pool::run(len, &|chunks| {
                // SAFETY: the pool hands out every index below `len` once,
                // so each slot of the `len`-capacity buffer is written by
                // exactly one thread.
                unsafe { iter.drive(chunks, |i, item| slots.write(i, item)) }
            });
            // SAFETY: `run` returned normally, so every slot is written. On
            // a panic `out` stays empty and the written items leak.
            unsafe { out.set_len(len) };
            out
        }
    }

    /// Converts an owned collection (or a range) into a parallel iterator.
    pub trait IntoParallelIterator {
        /// Concrete iterator type.
        type Iter: ParallelIterator<Item = Self::Item>;
        /// Item type produced by the iterator.
        type Item: Send;
        /// Consumes `self` into an iterator.
        fn into_par_iter(self) -> Self::Iter;
    }

    impl<I: ParallelIterator> IntoParallelIterator for I {
        type Iter = I;
        type Item = I::Item;
        fn into_par_iter(self) -> I {
            self
        }
    }

    /// `par_iter()`: borrowing iteration, over every `C` whose `&C`
    /// converts (rayon's blanket impl).
    pub trait IntoParallelRefIterator<'data> {
        /// Concrete iterator type.
        type Iter: ParallelIterator<Item = Self::Item>;
        /// Item type produced by the iterator.
        type Item: Send + 'data;
        /// Iterates `&self`.
        fn par_iter(&'data self) -> Self::Iter;
    }

    impl<'data, C: 'data + ?Sized> IntoParallelRefIterator<'data> for C
    where
        &'data C: IntoParallelIterator,
    {
        type Iter = <&'data C as IntoParallelIterator>::Iter;
        type Item = <&'data C as IntoParallelIterator>::Item;
        fn par_iter(&'data self) -> Self::Iter {
            self.into_par_iter()
        }
    }

    /// `par_iter_mut()`: mutably borrowing iteration.
    pub trait IntoParallelRefMutIterator<'data> {
        /// Concrete iterator type.
        type Iter: ParallelIterator<Item = Self::Item>;
        /// Item type produced by the iterator.
        type Item: Send + 'data;
        /// Iterates `&mut self`.
        fn par_iter_mut(&'data mut self) -> Self::Iter;
    }

    impl<'data, C: 'data + ?Sized> IntoParallelRefMutIterator<'data> for C
    where
        &'data mut C: IntoParallelIterator,
    {
        type Iter = <&'data mut C as IntoParallelIterator>::Iter;
        type Item = <&'data mut C as IntoParallelIterator>::Item;
        fn par_iter_mut(&'data mut self) -> Self::Iter {
            self.into_par_iter()
        }
    }

    /// Shared borrows of a slice's items.
    pub struct Iter<'data, T> {
        slice: &'data [T],
    }

    impl<'data, T: Sync> ParallelIterator for Iter<'data, T> {
        type Item = &'data T;

        fn len(&self) -> usize {
            self.slice.len()
        }

        unsafe fn drive<R, S>(&self, ranges: R, mut sink: S)
        where
            R: Iterator<Item = Range<usize>>,
            S: FnMut(usize, Self::Item),
        {
            for range in ranges {
                let start = range.start;
                for (i, item) in self.slice[range].iter().enumerate() {
                    sink(start + i, item);
                }
            }
        }
    }

    impl<'data, T: Sync> IntoParallelIterator for &'data [T] {
        type Iter = Iter<'data, T>;
        type Item = &'data T;
        fn into_par_iter(self) -> Self::Iter {
            Iter { slice: self }
        }
    }

    impl<'data, T: Sync> IntoParallelIterator for &'data Vec<T> {
        type Iter = Iter<'data, T>;
        type Item = &'data T;
        fn into_par_iter(self) -> Self::Iter {
            Iter { slice: self }
        }
    }

    /// Mutable borrows of a slice's items.
    pub struct IterMut<'data, T> {
        ptr: *mut T,
        len: usize,
        _borrow: PhantomData<&'data mut [T]>,
    }

    // SAFETY: `drive` hands each `&mut T` to one thread only (every index
    // is driven once), which is sound for `T: Send` like `&mut [T]`.
    unsafe impl<T: Send> Sync for IterMut<'_, T> {}
    // SAFETY: as for `&mut [T]`.
    unsafe impl<T: Send> Send for IterMut<'_, T> {}

    impl<'data, T: Send> ParallelIterator for IterMut<'data, T> {
        type Item = &'data mut T;

        fn len(&self) -> usize {
            self.len
        }

        unsafe fn drive<R, S>(&self, ranges: R, mut sink: S)
        where
            R: Iterator<Item = Range<usize>>,
            S: FnMut(usize, Self::Item),
        {
            for range in ranges {
                assert!(range.end <= self.len, "range past the slice");
                // SAFETY: in bounds, and the caller hands out each index
                // once, so no two `&mut` alias.
                let part = unsafe {
                    std::slice::from_raw_parts_mut(self.ptr.add(range.start), range.len())
                };
                for (i, item) in part.iter_mut().enumerate() {
                    sink(range.start + i, item);
                }
            }
        }
    }

    impl<'data, T: Send> IntoParallelIterator for &'data mut [T] {
        type Iter = IterMut<'data, T>;
        type Item = &'data mut T;
        fn into_par_iter(self) -> Self::Iter {
            IterMut {
                ptr: self.as_mut_ptr(),
                len: self.len(),
                _borrow: PhantomData,
            }
        }
    }

    impl<'data, T: Send> IntoParallelIterator for &'data mut Vec<T> {
        type Iter = IterMut<'data, T>;
        type Item = &'data mut T;
        fn into_par_iter(self) -> Self::Iter {
            self.as_mut_slice().into_par_iter()
        }
    }

    /// A vector's items, moved out. Items that are never driven (the
    /// iterator is dropped unused, or a chunk panics) leak; the buffer is
    /// always freed.
    pub struct IntoIter<T> {
        ptr: *mut T,
        len: usize,
        cap: usize,
    }

    // SAFETY: `drive` moves each item out on one thread only.
    unsafe impl<T: Send> Sync for IntoIter<T> {}
    // SAFETY: the iterator owns the items, like `Vec<T>`.
    unsafe impl<T: Send> Send for IntoIter<T> {}

    impl<T> Drop for IntoIter<T> {
        fn drop(&mut self) {
            // SAFETY: the buffer came from a `Vec` of capacity `cap`; a
            // zero length frees it without dropping any item.
            drop(unsafe { Vec::from_raw_parts(self.ptr, 0, self.cap) });
        }
    }

    impl<T: Send> ParallelIterator for IntoIter<T> {
        type Item = T;

        fn len(&self) -> usize {
            self.len
        }

        unsafe fn drive<R, S>(&self, ranges: R, mut sink: S)
        where
            R: Iterator<Item = Range<usize>>,
            S: FnMut(usize, Self::Item),
        {
            for range in ranges {
                assert!(range.end <= self.len, "range past the vector");
                for i in range {
                    // SAFETY: in bounds, and each index is driven once, so
                    // each item is moved out once.
                    sink(i, unsafe { self.ptr.add(i).read() });
                }
            }
        }
    }

    impl<T: Send> IntoParallelIterator for Vec<T> {
        type Iter = IntoIter<T>;
        type Item = T;
        fn into_par_iter(self) -> Self::Iter {
            let mut vec = ManuallyDrop::new(self);
            IntoIter {
                ptr: vec.as_mut_ptr(),
                len: vec.len(),
                cap: vec.capacity(),
            }
        }
    }

    /// A range of indices.
    pub struct RangeIter {
        range: Range<usize>,
    }

    impl ParallelIterator for RangeIter {
        type Item = usize;

        fn len(&self) -> usize {
            self.range.len()
        }

        unsafe fn drive<R, S>(&self, ranges: R, mut sink: S)
        where
            R: Iterator<Item = Range<usize>>,
            S: FnMut(usize, Self::Item),
        {
            for range in ranges {
                for i in range {
                    sink(i, self.range.start + i);
                }
            }
        }
    }

    impl IntoParallelIterator for Range<usize> {
        type Iter = RangeIter;
        type Item = usize;
        fn into_par_iter(self) -> Self::Iter {
            RangeIter { range: self }
        }
    }

    /// Adapter behind [`ParallelIterator::map`].
    pub struct Map<I, F> {
        base: I,
        f: F,
    }

    impl<I, F, R> ParallelIterator for Map<I, F>
    where
        I: ParallelIterator,
        F: Fn(I::Item) -> R + Sync + Send,
        R: Send,
    {
        type Item = R;

        fn len(&self) -> usize {
            self.base.len()
        }

        unsafe fn drive<RS, S>(&self, ranges: RS, mut sink: S)
        where
            RS: Iterator<Item = Range<usize>>,
            S: FnMut(usize, Self::Item),
        {
            // SAFETY: forwards the caller's contract.
            unsafe { self.base.drive(ranges, |i, item| sink(i, (self.f)(item))) }
        }
    }

    /// Adapter behind [`ParallelIterator::map_init`].
    pub struct MapInit<I, INIT, F> {
        base: I,
        init: INIT,
        f: F,
    }

    impl<I, INIT, F, T, R> ParallelIterator for MapInit<I, INIT, F>
    where
        I: ParallelIterator,
        INIT: Fn() -> T + Sync + Send,
        F: Fn(&mut T, I::Item) -> R + Sync + Send,
        R: Send,
    {
        type Item = R;

        fn len(&self) -> usize {
            self.base.len()
        }

        unsafe fn drive<RS, S>(&self, ranges: RS, mut sink: S)
        where
            RS: Iterator<Item = Range<usize>>,
            S: FnMut(usize, Self::Item),
        {
            // One `drive` per participating thread, so one state each.
            let mut state = (self.init)();
            // SAFETY: forwards the caller's contract.
            unsafe {
                self.base
                    .drive(ranges, |i, item| sink(i, (self.f)(&mut state, item)))
            }
        }
    }

    /// Adapter behind [`ParallelIterator::enumerate`].
    pub struct Enumerate<I> {
        base: I,
    }

    impl<I: ParallelIterator> ParallelIterator for Enumerate<I> {
        type Item = (usize, I::Item);

        fn len(&self) -> usize {
            self.base.len()
        }

        unsafe fn drive<R, S>(&self, ranges: R, mut sink: S)
        where
            R: Iterator<Item = Range<usize>>,
            S: FnMut(usize, Self::Item),
        {
            // SAFETY: forwards the caller's contract.
            unsafe { self.base.drive(ranges, |i, item| sink(i, (i, item))) }
        }
    }
}

/// Runs both closures and returns both results. The workspace never
/// calls it, so it runs them one after the other on the caller.
pub fn join<A, B, RA, RB>(oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    (oper_a(), oper_b())
}

/// Threads a parallel call can use: the caller plus the pool's helpers.
pub fn current_num_threads() -> usize {
    pool::threads()
}

#[cfg(test)]
mod tests;
