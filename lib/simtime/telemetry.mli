(** One emission path for instrumented events.

    Every instrumented event of the device, object-store, replication,
    checkpoint and restore layers is a single call into this module,
    which owns the event-to-channel mapping: which {!Metrics} the event
    updates, which {!Span} it records (name, track, attributes) and
    which {!Probe} point it fires with which fields. The layers hold one
    optional handle instead of a registry per channel, in the DTrace
    manner of one probe site feeding many consumers.

    Metrics are registered lazily, by the first event that updates
    them, so {!Metrics.to_json} keeps its registration order. Devices
    and stores get a per-instance handle ({!dev}, {!store}) that
    registers their metrics once and caches the handles; the rarer
    checkpoint, restore and replication events look theirs up by
    name. Probes fire guard-first: with no subscription on the point a
    firing costs one array load and allocates nothing. *)

type t

val create : metrics:Metrics.t -> spans:Span.t -> probes:Probe.t -> t
val metrics : t -> Metrics.t
val spans : t -> Span.t

val count : t -> string -> unit
(** Increment the counter named [name] (registering it on first use). *)

(* --- block devices --------------------------------------------------- *)

type dev
(** A device's handle. Plain data (no closures, no {!Metrics.t}): a
    device holding one stays safe to marshal. *)

val dev : t -> string -> dev
(** Registers [dev.<name>.xfer_us], [.blocks_written], [.blocks_read]
    and [.commands], in that order. *)

val dev_io :
  dev -> op:[ `Read | `Write | `Oob ] -> cls:string -> span:bool ->
  commands:int -> blocks:int -> cost:Duration.t -> start_at:Duration.t ->
  end_at:Duration.t -> unit
(** One device transfer of [commands] commands moving [blocks] blocks
    in [cost] of device time. Updates the device's counters and
    transfer histogram; with [span], records a [dev.read] / [dev.write]
    / [dev.oob] span from [start_at] to [end_at] on the device's track
    (attributes [blocks], [extents] for writes, [cls]); fires [dev.io]
    with [op] read/write/oob and [cls]. *)

(* --- object store ---------------------------------------------------- *)

type store

val store : t -> string -> store
(** The handle of the store on device [dev]: registers
    [store.<dev>.flush_us], [.pages_put], [.records_put] and
    [.commits], in that order. *)

val store_put : store -> records:int -> pages:int -> unit

val store_commit :
  store -> gen:int -> started:Duration.t -> durable_at:Duration.t ->
  data_blocks:int -> unit
(** A generation reaching durability: the commit counter, the
    [flush_us] histogram, a [store.flush] span on track [store.<dev>],
    and the [store.commit] probe. *)

val alloc_defer : store -> op:string -> us:float -> blocks:int -> unit
(** Deferred-free lifecycle ([park] / [release] / [settle]): the
    [alloc.defer] probe. *)

(* --- replication ----------------------------------------------------- *)

val repl_frame : t -> op:string -> gen:int -> pgid:int -> bytes:int -> unit
(** A frame handed to the link: the [repl.msg] probe. *)

val repl_ship :
  t -> gen:int -> pgid:int -> corr:string -> mode:string -> attempts:int ->
  acked:bool -> lag:int -> bytes:int -> start_at:Duration.t ->
  end_at:Duration.t -> unit
(** The end of one ship: [repl.acked] plus [repl.ack_rtt_us] or
    [repl.gave_up], the [repl.lag] gauge, the [repl.msg] probe with op
    [ship], and a [repl.ship] span on track [repl]. *)

(* --- checkpoint pipeline --------------------------------------------- *)

val ckpt_begin : t -> pgid:int -> mode:string -> Span.span
(** Open the checkpoint's root span [ckpt]. *)

val ckpt_recorder : t -> Span.span -> unit
(** Close the [ckpt.recorder] span and observe [ckpt.recorder_us]. *)

val ckpt_captured :
  t -> root:Span.span -> gen:int -> pgid:int -> pages:int -> cow_breaks:int ->
  quiesce:Duration.t -> serialize:Duration.t -> cow_mark:Duration.t ->
  stop:Duration.t -> degraded:string option -> unit
(** The barrier's end: closes [root], updates the [ckpt.*] counters and
    phase histograms, and fires [ckpt.phase] per barrier phase. *)

val ckpt_flushed :
  t -> gen:int -> pgid:int -> pages:int -> barrier_at:Duration.t ->
  flush_started:Duration.t -> durable_at:Duration.t -> unit
(** An epoch retired: [ckpt.flush_us], [ckpt.durable_lag_us], a
    [ckpt.flush] span on track [ckpt.pipeline], and [ckpt.phase] op
    [flush]. *)

val ckpt_backpressure :
  t -> pgid:int -> start_at:Duration.t -> end_at:Duration.t -> unit
(** The pipeline wait of one checkpoint: [ckpt.backpressure_us] (zero
    included) and, when non-zero, a [ckpt.backpressure] span. *)

(* --- restore --------------------------------------------------------- *)

val restore_begin : t -> gen:int -> pgid:int -> Span.span
(** Open the restore's root span [restore]. *)

val restore_prefetch :
  t -> pages:int -> start_at:Duration.t -> end_at:Duration.t ->
  read_time:Duration.t -> unit

val restore_done :
  t -> root:Span.span -> procs:int -> resident:int -> lazy_:int ->
  objects:int -> bytes:int -> total:Duration.t -> metadata:Duration.t ->
  pagein:Duration.t -> unit
(** Closes [root] and updates the [restore.*] counters and
    histograms. *)
