open Aurora_simtime

type kind = Anonymous | Vnode of int

type pslot =
  | Resident of Frame.t
  | Paged_out of { content : Content.t; read_cost : Duration.t }

(* One entry per present page, holding all of its state. *)
type page = {
  mutable slot : pslot;
  mutable dirty : bool;
  mutable armed : bool;
  mutable heat : int;
}

type t = {
  oid : int;
  kind : kind;
  pool : Frame.pool;
  pages : (int, page) Hashtbl.t;
  mutable ndirty : int;  (* pages with [dirty] set *)
  mutable shadow : t option;
  mutable refcount : int;
  mutable cow_breaks : int;
}

let next_oid = ref 0

let create ~pool kind =
  incr next_oid;
  { oid = !next_oid; kind; pool; pages = Hashtbl.create 64; ndirty = 0; shadow = None;
    refcount = 1; cow_breaks = 0 }

let oid t = t.oid
let kind t = t.kind
let shadow_of t = t.shadow

let incref t =
  if t.refcount <= 0 then invalid_arg "Vmobject.incref: dead object";
  t.refcount <- t.refcount + 1

let release_slot t = function
  | Resident f -> Frame.decref t.pool f
  | Paged_out _ -> ()

let rec decref t =
  if t.refcount <= 0 then invalid_arg "Vmobject.decref: dead object";
  t.refcount <- t.refcount - 1;
  if t.refcount = 0 then begin
    Hashtbl.iter (fun _ p -> release_slot t p.slot) t.pages;
    Hashtbl.reset t.pages;
    t.ndirty <- 0;
    match t.shadow with
    | None -> ()
    | Some backing ->
      t.shadow <- None;
      decref backing
  end

let make_shadow t =
  incref t;
  let s = create ~pool:t.pool t.kind in
  s.shadow <- Some t;
  s

type resolution =
  | Found of { owner : t; slot : pslot }
  | Absent

let rec resolve t pindex =
  match Hashtbl.find_opt t.pages pindex with
  | Some p -> Found { owner = t; slot = p.slot }
  | None -> (
    match t.shadow with
    | Some backing -> resolve backing pindex
    | None -> Absent)

(* A new page starts clean, unarmed and cold; replacing a page's slot
   keeps the rest of its state. *)
let set_slot t pindex slot =
  match Hashtbl.find_opt t.pages pindex with
  | Some p ->
    release_slot t p.slot;
    p.slot <- slot
  | None -> Hashtbl.add t.pages pindex { slot; dirty = false; armed = false; heat = 0 }

let install t pindex frame = set_slot t pindex (Resident frame)

let install_paged_out t pindex ~content ~read_cost =
  set_slot t pindex (Paged_out { content; read_cost })

let page_in t pindex frame =
  match Hashtbl.find_opt t.pages pindex with
  | Some ({ slot = Paged_out _; _ } as p) -> p.slot <- Resident frame
  | Some { slot = Resident _; _ } -> invalid_arg "Vmobject.page_in: page already resident"
  | None -> invalid_arg "Vmobject.page_in: no such page"

let page_out t pindex ~read_cost =
  match Hashtbl.find_opt t.pages pindex with
  | Some ({ slot = Resident f; _ } as p) ->
    if f.Frame.refcount > 1 then invalid_arg "Vmobject.page_out: frame is shared";
    let content = f.Frame.content in
    Frame.decref t.pool f;
    p.slot <- Paged_out { content; read_cost };
    content
  | Some { slot = Paged_out _; _ } -> invalid_arg "Vmobject.page_out: already paged out"
  | None -> invalid_arg "Vmobject.page_out: no such page"

(* --- checkpoint support ------------------------------------------- *)

type flush_item = { pindex : int; content : Content.t; frame : Frame.t option }

(* The pages satisfying [keep], in increasing page index order. *)
let pages_in_order t ~keep =
  Hashtbl.fold (fun pindex p acc -> if keep p then (pindex, p) :: acc else acc) t.pages []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let arm_for_checkpoint t ~mode =
  (* [`Dirty_only] takes the dirty pages. Pages are marked dirty at
     birth, so a page that is neither armed nor dirty was captured
     before and is unmodified since. *)
  let all = mode = `Full in
  let items =
    List.map
      (fun (pindex, p) ->
        p.armed <- true;
        p.dirty <- false;
        match p.slot with
        | Resident f ->
          Frame.incref f;
          { pindex; content = f.Frame.content; frame = Some f }
        | Paged_out { content; _ } -> { pindex; content; frame = None })
      (pages_in_order t ~keep:(fun p -> all || p.dirty))
  in
  t.ndirty <- 0;
  items

let release_flush_item ~pool item =
  match item.frame with
  | Some f -> Frame.decref pool f
  | None -> ()

let is_armed t pindex =
  match Hashtbl.find_opt t.pages pindex with Some p -> p.armed | None -> false

let cow_breaks t = t.cow_breaks
let reset_cow_breaks t = t.cow_breaks <- 0
let armed_count t = Hashtbl.fold (fun _ p n -> if p.armed then n + 1 else n) t.pages 0
let dirty_count t = t.ndirty

let set_dirty t p =
  if not p.dirty then begin
    p.dirty <- true;
    t.ndirty <- t.ndirty + 1
  end

let mark_dirty t pindex = Option.iter (set_dirty t) (Hashtbl.find_opt t.pages pindex)

let disarm_for_write t pindex =
  match Hashtbl.find_opt t.pages pindex with
  | Some { armed = false; _ } | None ->
    invalid_arg "Vmobject.disarm_for_write: page not armed"
  | Some ({ slot = Resident old_frame; _ } as p) ->
    (* Aurora's COW: a new page shared between all processes mapping
       this object; the old frame stays alive while the flusher holds
       its reference. *)
    let fresh = Frame.alloc t.pool old_frame.Frame.content in
    Frame.decref t.pool old_frame;
    p.slot <- Resident fresh;
    p.armed <- false;
    t.cow_breaks <- t.cow_breaks + 1;
    set_dirty t p;
    fresh
  | Some { slot = Paged_out _; _ } ->
    invalid_arg "Vmobject.disarm_for_write: page not resident"

(* --- heat / clock ------------------------------------------------- *)

let touch t pindex =
  match Hashtbl.find_opt t.pages pindex with
  | Some p ->
    (match p.slot with Resident f -> f.Frame.accessed <- true | Paged_out _ -> ());
    p.heat <- p.heat + 1
  | None -> ()

let heat t pindex =
  match Hashtbl.find_opt t.pages pindex with Some p -> p.heat | None -> 0

let age_heat t = Hashtbl.iter (fun _ p -> p.heat <- p.heat / 2) t.pages

let hot_pages t ~limit =
  if limit < 0 then invalid_arg "Vmobject.hot_pages: negative limit";
  let warm =
    Hashtbl.fold (fun k p acc -> if p.heat > 0 then (k, p.heat) :: acc else acc) t.pages []
  in
  let sorted =
    List.sort (fun (ka, va) (kb, vb) ->
        match Int.compare vb va with 0 -> Int.compare ka kb | c -> c)
      warm
  in
  List.filteri (fun i _ -> i < limit) sorted |> List.map fst

(* --- iteration / stats -------------------------------------------- *)

let fold_pages t ~init ~f =
  List.fold_left (fun acc (pindex, p) -> f acc pindex p.slot) init
    (pages_in_order t ~keep:(fun _ -> true))

let resident_count t =
  Hashtbl.fold (fun _ p acc -> match p.slot with Resident _ -> acc + 1 | Paged_out _ -> acc)
    t.pages 0

let rec chain_depth t =
  match t.shadow with None -> 1 | Some backing -> 1 + chain_depth backing
