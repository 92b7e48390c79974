//! Single-writer, many-reader epoch publication of an immutable value.
//!
//! The resolver thread periodically produces a new immutable
//! [`Arc`]-wrapped snapshot; request workers want the current one
//! without ever blocking behind the resolver. `std` has no atomic
//! `Arc` swap, so this module implements the classic *left-right*
//! double-buffer: two slots, an atomic index naming the slot readers
//! should use, and a per-slot reader count that tells the single writer
//! when the *inactive* slot is free to overwrite.
//!
//! Reader ([`ReadHandle::load`]): read the front index, register on that
//! slot, re-check the index, clone the `Arc`, deregister. If the index
//! moved between the first read and the re-check, the registration may
//! be on the writer's target slot — back out and retry (the retry
//! window is a handful of instructions during a publish; readers never
//! wait on a lock and never contend with the resolver's *work*, only
//! with the pointer flip itself).
//!
//! Writer ([`Publisher::publish`]): wait until the *back* slot's reader
//! count drains to zero (stragglers that registered just before the
//! previous flip), overwrite its value, then flip the front index. The
//! writer is unique by construction — [`Publisher`] is not `Clone` and
//! `publish` takes `&mut self` — so no writer-writer coordination
//! exists at all.
//!
//! ## Why this is sound
//!
//! All index/count operations are `SeqCst`, so there is one total order
//! `S` over them. Suppose a reader's clone of slot `b` could race a
//! writer overwriting `b`. The reader re-checked `front == b` *after*
//! registering, so in `S` its registration precedes the re-check, and
//! the re-check read a flip-to-`b` store that happened after the
//! previous write to `b` completed. For the *next* write to `b` to
//! start, the writer's drain loop must read a zero count *after* the
//! front moved off `b` — but the reader's registration is already in
//! the count's modification order before that read (otherwise the
//! re-check could not have seen `front == b`, because the flips are
//! ordered in `S`), so the drain loop observes the reader and waits
//! until it deregisters, which happens only after the clone completes.
//! The `release` flip / `acquire` re-check pairing also makes the
//! writer's slot write *happen-before* any reader clone that sees the
//! flip, so the reader always clones a fully-written `Arc`.
//!
//! This is the serving crate's only `unsafe` code (the workspace's other
//! sites are the store's mapping and typed-slice reads and the MinHash
//! kernel dispatch); it is confined to the two slot accesses and
//! stress-tested below.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Shared state of one published slot pair.
struct Shared<T> {
    slots: [Slot<T>; 2],
    /// Index (0 or 1) of the slot readers should load from.
    front: AtomicUsize,
    /// Monotone publication count (0 = the initial value), readable
    /// without loading the value itself.
    version: AtomicU64,
}

struct Slot<T> {
    /// Readers currently inside this slot's register/clone window.
    readers: AtomicUsize,
    value: UnsafeCell<Arc<T>>,
}

// SAFETY: `value` is only written by the unique `Publisher` while the
// slot is unreachable to new readers (front names the other slot) and
// drained of registered ones; readers only clone through a shared
// reference. `Arc<T>` crossing threads needs `T: Send + Sync`.
unsafe impl<T: Send + Sync> Sync for Shared<T> {}
unsafe impl<T: Send + Sync> Send for Shared<T> {}

/// Creates a published slot holding `initial`, returning the unique
/// writer handle and a cloneable reader handle.
pub fn published<T: Send + Sync>(initial: Arc<T>) -> (Publisher<T>, ReadHandle<T>) {
    let shared = Arc::new(Shared {
        slots: [
            Slot {
                readers: AtomicUsize::new(0),
                value: UnsafeCell::new(Arc::clone(&initial)),
            },
            Slot {
                readers: AtomicUsize::new(0),
                value: UnsafeCell::new(initial),
            },
        ],
        front: AtomicUsize::new(0),
        version: AtomicU64::new(0),
    });
    (
        Publisher {
            shared: Arc::clone(&shared),
        },
        ReadHandle { shared },
    )
}

/// The unique writer. Not `Clone`; `publish` takes `&mut self`.
pub struct Publisher<T: Send + Sync> {
    shared: Arc<Shared<T>>,
}

impl<T: Send + Sync> Publisher<T> {
    /// Replaces the published value. Lock-free for readers; the writer
    /// may briefly spin waiting for straggler readers to leave the slot
    /// it is about to overwrite (their critical section is one `Arc`
    /// clone).
    pub fn publish(&mut self, value: Arc<T>) {
        let shared = &*self.shared;
        let front = shared.front.load(Ordering::SeqCst);
        let back = 1 - front;
        // New readers can only enter the front slot; drain stragglers
        // still registered on the back one.
        while shared.slots[back].readers.load(Ordering::SeqCst) != 0 {
            std::thread::yield_now();
        }
        // SAFETY: `back != front`, so no new reader registers here, and
        // the drain above saw zero registered readers — the module-level
        // argument shows none can still be inside the clone window. The
        // old `Arc` is dropped in place.
        unsafe {
            *shared.slots[back].value.get() = value;
        }
        shared.front.store(back, Ordering::SeqCst);
        shared.version.fetch_add(1, Ordering::SeqCst);
    }

    /// A reader handle sharing this publisher's slot.
    pub fn subscribe(&self) -> ReadHandle<T> {
        ReadHandle {
            shared: Arc::clone(&self.shared),
        }
    }
}

/// A cheap cloneable reader handle.
pub struct ReadHandle<T: Send + Sync> {
    shared: Arc<Shared<T>>,
}

impl<T: Send + Sync> Clone for ReadHandle<T> {
    fn clone(&self) -> Self {
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T: Send + Sync> ReadHandle<T> {
    /// Clones the currently published `Arc`. Never blocks on a lock and
    /// never touches the writer's state; during a concurrent publish it
    /// may retry the register/re-check handshake a bounded-in-practice
    /// number of times.
    pub fn load(&self) -> Arc<T> {
        let shared = &*self.shared;
        loop {
            let i = shared.front.load(Ordering::SeqCst);
            shared.slots[i].readers.fetch_add(1, Ordering::SeqCst);
            if shared.front.load(Ordering::SeqCst) == i {
                // SAFETY: registered on the front slot and the front
                // still names it — the writer's drain loop now waits for
                // this registration before overwriting (see module doc).
                let value = unsafe { (*shared.slots[i].value.get()).clone() };
                shared.slots[i].readers.fetch_sub(1, Ordering::SeqCst);
                return value;
            }
            // The front moved while registering: this slot may be the
            // writer's target. Back out and retry on the new front.
            shared.slots[i].readers.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Number of `publish` calls so far (0 = initial value only).
    pub fn version(&self) -> u64 {
        self.shared.version.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_returns_initial_then_published() {
        let (mut publisher, reader) = published(Arc::new(1u64));
        assert_eq!(*reader.load(), 1);
        assert_eq!(reader.version(), 0);
        publisher.publish(Arc::new(2));
        assert_eq!(*reader.load(), 2);
        publisher.publish(Arc::new(3));
        assert_eq!(*reader.load(), 3);
        assert_eq!(reader.version(), 2);
    }

    #[test]
    fn subscribe_and_clone_share_the_slot() {
        let (mut publisher, reader) = published(Arc::new(10u64));
        let other = publisher.subscribe();
        let third = reader.clone();
        publisher.publish(Arc::new(11));
        assert_eq!(*other.load(), 11);
        assert_eq!(*third.load(), 11);
    }

    /// Readers hammer `load` while the writer publishes thousands of
    /// monotonically increasing epochs. Every observed value must be
    /// monotone per reader (no torn or resurrected snapshots), and the
    /// final value must be the last published one.
    #[test]
    fn concurrent_reads_see_monotone_epochs() {
        const PUBLISHES: u64 = 20_000;
        const READERS: usize = 4;
        let (mut publisher, reader) = published(Arc::new(0u64));
        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                let handle = reader.clone();
                std::thread::spawn(move || {
                    let mut last = 0u64;
                    let mut observed = 0u64;
                    while last < PUBLISHES {
                        let seen = *handle.load();
                        assert!(seen >= last, "epoch went backwards: {seen} < {last}");
                        last = seen;
                        observed += 1;
                    }
                    observed
                })
            })
            .collect();
        for epoch in 1..=PUBLISHES {
            publisher.publish(Arc::new(epoch));
        }
        for handle in readers {
            let observed = handle.join().expect("reader panicked");
            assert!(observed > 0);
        }
        assert_eq!(*reader.load(), PUBLISHES);
        assert_eq!(reader.version(), PUBLISHES);
    }

    /// The old `Arc` is dropped on overwrite: publishing N values keeps
    /// at most the two slot residents alive.
    #[test]
    fn old_values_are_released() {
        let probe = Arc::new(42u64);
        let weak = Arc::downgrade(&probe);
        let (mut publisher, reader) = published(probe);
        publisher.publish(Arc::new(1));
        publisher.publish(Arc::new(2));
        assert!(
            weak.upgrade().is_none(),
            "initial value must be dropped after two publishes"
        );
        assert_eq!(*reader.load(), 2);
    }
}
