(** Clock (second-chance) page replacement.

    The sweep walks resident pages of the given objects in a stable
    circular order: pages whose accessed bit is set get a second chance
    (the bit is cleared); pages found cold are returned as eviction
    victims. Frames shared by more than one reference (COW sharing,
    in-flight flushes) are skipped — evicting them would need reverse
    mapping machinery the simulation does not model.

    {!age} decays the per-page heat that [Vmobject.hot_pages] ranks
    when a checkpoint records which pages lazy restore pages in
    eagerly. *)

type victim = { obj : Vmobject.t; pindex : int; frame : Frame.t }

type t

val create : unit -> t
(** Sweep state (the clock hand position persists across sweeps). *)

val sweep : t -> objects:Vmobject.t list -> want:int -> victim list
(** Find up to [want] eviction victims. May return fewer when most
    pages are hot or shared; at most two full revolutions are made per
    call. *)

val age : objects:Vmobject.t list -> unit
(** Apply one aging step to every object's heat counters. *)
