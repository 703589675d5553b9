(** The object store's block table: one entry per block number.

    Blocks are shared aggressively — by COW B+tree snapshots and by
    page deduplication — so each entry carries a reference count and
    the block is freed in place when it reaches zero. This is what
    makes the paper's "in-place garbage collection without needing to
    rewrite incremental checkpoints" work: releasing a generation
    decrements counts down the shared structure and only
    uniquely-owned blocks return to the free list.

    Everything else the store knows about a block lives on the same
    entry, in dense columns indexed by block number: its content hash —
    the checksum verified on reads and the key of the deduplication
    index ("deduplicate otherwise unrelated checkpoints on disk", §2)
    — and its mirror block. A column is allocated only once some block
    needs it, so a store without protection never pays for it.
    Freeing a block clears its whole entry in one place.

    State is kept in memory and reconstructed at recovery by walking
    the generation roots (see [Store.open_]). *)

type t

exception Out_of_space
(** Raised by {!alloc} / {!alloc_extent} when a capacity is set and
    exhausted. Typed so a full device degrades the checkpoint (the
    store aborts the open generation and keeps serving) instead of
    killing the simulation. *)

val create : first_block:int -> ?capacity_blocks:int -> ?stripes:int -> unit -> t
(** Blocks below [first_block] are reserved (superblocks). [stripes]
    (default 1) is the backing device array's stripe count; extents
    are aligned to it. *)

val alloc : t -> int
(** A free block, refcount 1. Raises {!Out_of_space} when a capacity
    is set and exhausted. *)

val alloc_extent : t -> int -> int array
(** [alloc_extent t n]: [n] fresh contiguous logical blocks, each with
    refcount 1, stripe-aligned when [n] spans a full stripe round.
    Contiguity makes the run one physical extent per device under
    round-robin striping. Raises {!Out_of_space} on capacity
    exhaustion. *)

val incref : t -> int -> unit
val decref : t -> int -> unit
(** Frees at zero: the block returns to the free list, its checksum
    and the dedup entry it owns are dropped, and its mirror loses a
    reference. Raises [Invalid_argument] on a dead block. *)

val refcount : t -> int -> int
(** 0 for unallocated blocks. *)

val live_blocks : t -> int

val mark_live : t -> int -> bool
(** Recovery: force the block's refcount up by one (from zero if
    unallocated); [true] on its first reference. *)

val set_deferred_frees : t -> bool -> unit
(** When on, blocks freed by {!decref} are parked instead of returned
    to the free list. The owner drains the pen with {!take_parked} and
    gives blocks back with {!release} once it is safe to reuse them —
    the object store gates reuse on the durability of the first
    superblock written after the free, so a crash can never recover a
    state that references a since-reused block. *)

val take_parked : t -> int list
(** Drain the deferred-free pen (empties it). *)

val release : t -> int list -> unit
(** Return previously parked blocks to the free list. *)

val bump_fresh : t -> int -> unit
(** Push [next_fresh] past [block] without allocating it. After a
    mid-run recovery rebuild, blocks still gated by an in-flight
    superblock are quarantined this way: they leak (a hole the fresh
    pointer skips) rather than risk reuse while an older superblock
    that references them could still win recovery. *)

val set_pressure_hook : t -> (unit -> bool) -> unit
(** Invoked when an allocation would raise {!Out_of_space}; return
    [true] to retry the allocation (e.g. after settling deferred frees
    by advancing the clock). Must make progress monotonically: a hook
    that keeps returning [true] without growing the free list will
    loop. *)

val reset : t -> unit
(** Before a recovery walk: drop counts, free lists and the dedup
    index (its counters are kept). Checksums and mirrors stay — the
    walk reads through them — until {!prune}. *)

val prune : t -> unit
(** Drop the checksum and mirror of every unallocated block. *)

val checksum : t -> int -> int64 option
val set_checksum : t -> int -> int64 -> unit
val mirror : t -> int -> int option

val set_mirror : t -> int -> int -> unit
(** The entry takes over the caller's reference on the mirror block. *)

val iter_checksums : t -> (int -> int64 -> unit) -> unit
val iter_mirrors : t -> (int -> int -> unit) -> unit
(** In ascending block order. *)

val dedup_find : t -> hash:int64 -> int option
(** The block already holding content with this hash, counting a hit
    or a miss. *)

val dedup_peek : t -> hash:int64 -> int option
(** {!dedup_find} without the counters (read repair's lookup). *)

val dedup_add : t -> hash:int64 -> block:int -> unit
(** Raises [Invalid_argument] if the hash maps to another block, or
    the block already carries another content hash. *)

val note_saved : t -> bytes:int -> unit
(** Credit avoided writes to the savings counter. Raises
    [Invalid_argument] on a negative size. *)

val dedup_entries : t -> int
val dedup_hits : t -> int
val dedup_misses : t -> int
val dedup_bytes_saved : t -> int
