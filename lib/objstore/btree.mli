(** Copy-on-write B+tree over a (striped) block device array.

    This is the object store's index structure and the source of its
    two headline properties (§3): checkpoints at hundreds per second
    with a "lower overhead COW layout than that of WAFL and ZFS", and
    in-place garbage collection.

    - Every insert into a committed tree path-copies from the root
      down, so an old root keeps describing the old tree forever: a
      checkpoint generation {e is} a root pointer. Unchanged subtrees
      are shared between generations through block reference counts.
    - Within the current (uncommitted) epoch, nodes created by this
      epoch are mutated in place — path copying happens once per
      node per generation, not once per insert, which is what makes
      10 ms checkpoint intervals affordable.
    - Releasing a root decrements shared structure and frees only
      uniquely-owned blocks: GC without rewriting surviving
      checkpoints.

    A node is its block's bytes, every integer 8 bytes little-endian:
    a leaf is [u8 0, n, n x (key, u8 tag, value)] (tag 0 [Imm], 1
    [Ptr]), an internal node [u8 1, n, n keys, n+1, n+1 children],
    keys strictly ascending; search is binary search over the keys.
    A clean node, read from the device or flushed, shares the string
    the device holds and is never written: only the private
    block-sized copy that copy-on-write makes in the current epoch is
    mutable, until {!flush_dirty} writes it (asynchronously). Nodes
    are read, and validated, only on cache misses — i.e. at recovery
    and cold restore, charged to the simulated clock. Values are
    immediates or reference-counted block pointers; the tree owns one
    reference per pointer value stored in it. *)

open Aurora_simtime
open Aurora_device

type value = Imm of int64 | Ptr of int

type t

val create : dev:Devarray.t -> alloc:Alloc.t -> t
val empty_root : t -> int
(** A fresh empty leaf, owned by the caller (refcount 1). *)

val set_reader : t -> (int -> Blockdev.content) -> unit
(** Route cache-miss block reads through [f] instead of the raw
    device. The store installs its checksum-verifying, self-repairing
    read here so tree nodes get the same media-fault protection as
    data blocks. *)

val begin_epoch : t -> int -> unit
(** Start generation [n]: nodes from earlier epochs become immutable
    (inserts will path-copy them). *)

val insert : t -> root:int -> key:int64 -> value -> int
(** Returns the (possibly new) root. Reference contract: the call
    consumes the caller's reference on [root] and the returned root
    carries it instead — a generation root that must outlive the
    insert needs {!retain_root} first. If the key exists its value is
    replaced, and a replaced [Ptr] loses the tree's reference. *)

val find : t -> root:int -> int64 -> value option

val fold_range :
  t -> root:int -> lo:int64 -> hi:int64 -> init:'a -> f:('a -> int64 -> value -> 'a) -> 'a
(** In key order over keys in [lo, hi] (inclusive). *)

val release_root : t -> int -> unit
(** Drop one reference on the root, cascading frees through uniquely
    owned nodes and decrementing value-block references. *)

val retain_root : t -> int -> unit
(** Take an extra reference on a root (e.g. when a new generation
    starts from the previous generation's tree). *)

val flush_dirty :
  ?tee:((int * Blockdev.content) list -> (int * Blockdev.content) list) ->
  ?cls:Iosched.cls -> t -> Duration.t
(** Queue every node written since the last flush to the device
    (asynchronously); returns the absolute completion time
    ({!Aurora_simtime.Duration}), or the current time when none was. [tee] observes the
    queued node writes and returns extra writes to append to the same
    submission — the store uses it to record node checksums and emit
    mirror copies in the same flush. *)

val cached_count : t -> int
val drop_cache : t -> unit
(** Evict all cached nodes (cold-cache benchmarks). Raises
    [Invalid_argument] if an unflushed node remains. *)

val reset_cache : t -> unit
(** Evict everything, dirty or not. Recovery uses this after a crash
    or an aborted generation: cached nodes may describe state the
    device never saw. *)

(** Structural access for recovery walks. *)
type view = Leaf_view of (int64 * value) list | Internal_view of int list

val view : t -> int -> view
(** The node at a block (a cache miss reads the device). Raises
    [Serial.Corrupt] for a node that does not check out. *)

val node_depth : t -> root:int -> int
