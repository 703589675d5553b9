open Aurora_simtime

type kind = Anonymous | Vnode of int

type pslot =
  | Resident of Frame.t
  | Paged_out of { content : Content.t; read_cost : Duration.t }

(* The page table: a directory of chunks indexed by [pindex lsr
   chunk_bits], each allocated when the first page in its range is
   installed. A chunk keeps its pages' slots, heat and state bits in
   dense arrays; only a page with the [present] bit holds a slot. *)
let chunk_bits = 9
let chunk_pages = 1 lsl chunk_bits

let present = 1 and dirty = 2 and armed = 4

type chunk = { slots : pslot array; heat : int array; state : Bytes.t }

type t = {
  oid : int;
  kind : kind;
  pool : Frame.pool;
  mutable chunks : chunk option array;
  mutable ndirty : int;  (* pages with the [dirty] bit *)
  mutable shadow : t option;
  mutable refcount : int;
  mutable cow_breaks : int;
}

let bits c i = Char.code (Bytes.get c.state i)
let set_bits c i b = Bytes.set c.state i (Char.chr b)
let has c i b = bits c i land b <> 0
let offset pindex = pindex land (chunk_pages - 1)

(* The chunk holding [pindex], when that page is present. *)
let page t pindex =
  let ci = pindex lsr chunk_bits in
  if ci >= Array.length t.chunks then None
  else
    match t.chunks.(ci) with
    | Some c as found when has c (offset pindex) present -> found
    | _ -> None

(* [f acc c i pindex] over every present page, in increasing page
   index order. *)
let fold_present t init f =
  let acc = ref init in
  Array.iteri
    (fun ci -> function
      | None -> ()
      | Some c ->
        for i = 0 to chunk_pages - 1 do
          if has c i present then acc := f !acc c i ((ci lsl chunk_bits) lor i)
        done)
    t.chunks;
  !acc

let next_oid = ref 0

let create ~pool kind =
  incr next_oid;
  { oid = !next_oid; kind; pool; chunks = [||]; ndirty = 0; shadow = None; refcount = 1;
    cow_breaks = 0 }

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
    fold_present t () (fun () c i _ -> release_slot t c.slots.(i));
    t.chunks <- [||];
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
  match page t pindex with
  | Some c -> Found { owner = t; slot = c.slots.(offset pindex) }
  | None -> (
    match t.shadow with
    | Some backing -> resolve backing pindex
    | None -> Absent)

let absent_slot = Paged_out { content = Content.zero; read_cost = Duration.zero }

let chunk_for t pindex =
  if pindex < 0 then invalid_arg "Vmobject.install: negative page index";
  let ci = pindex lsr chunk_bits in
  let n = Array.length t.chunks in
  if ci >= n then t.chunks <- Array.append t.chunks (Array.make (max (ci + 1 - n) n) None);
  match t.chunks.(ci) with
  | Some c -> c
  | None ->
    let c =
      { slots = Array.make chunk_pages absent_slot; heat = Array.make chunk_pages 0;
        state = Bytes.make chunk_pages '\000' }
    in
    t.chunks.(ci) <- Some c;
    c

(* A new page starts clean, unarmed and cold; replacing a page's slot
   keeps the rest of its state. *)
let set_slot t pindex slot =
  let c = chunk_for t pindex and i = offset pindex in
  if has c i present then release_slot t c.slots.(i) else set_bits c i present;
  c.slots.(i) <- slot

let install t pindex frame = set_slot t pindex (Resident frame)

let install_paged_out t pindex ~content ~read_cost =
  set_slot t pindex (Paged_out { content; read_cost })

let present_chunk t pindex ~fn =
  match page t pindex with Some c -> c | None -> invalid_arg (fn ^ ": no such page")

let page_in t pindex frame =
  let c = present_chunk t pindex ~fn:"Vmobject.page_in" and i = offset pindex in
  match c.slots.(i) with
  | Paged_out _ -> c.slots.(i) <- Resident frame
  | Resident _ -> invalid_arg "Vmobject.page_in: page already resident"

let page_out t pindex ~read_cost =
  let c = present_chunk t pindex ~fn:"Vmobject.page_out" and i = offset pindex in
  match c.slots.(i) with
  | Resident f ->
    if f.Frame.refcount > 1 then invalid_arg "Vmobject.page_out: frame is shared";
    let content = f.Frame.content in
    Frame.decref t.pool f;
    c.slots.(i) <- Paged_out { content; read_cost };
    content
  | Paged_out _ -> invalid_arg "Vmobject.page_out: already paged out"

(* --- checkpoint support ------------------------------------------- *)

type flush_item = { pindex : int; content : Content.t; frame : Frame.t option }

let arm_for_checkpoint t ~mode =
  (* [`Dirty_only] takes the dirty pages. Pages are marked dirty at
     birth, so a page that is neither armed nor dirty was captured
     before and is unmodified since. *)
  let take = match mode with `Full -> present | `Dirty_only -> dirty in
  let items =
    fold_present t [] (fun items c i pindex ->
        let b = bits c i in
        if b land take = 0 then items
        else begin
          set_bits c i ((b lor armed) land lnot dirty);
          match c.slots.(i) with
          | Resident f ->
            Frame.incref f;
            { pindex; content = f.Frame.content; frame = Some f } :: items
          | Paged_out { content; _ } -> { pindex; content; frame = None } :: items
        end)
  in
  t.ndirty <- 0;
  List.rev items

let release_flush_item ~pool item =
  match item.frame with
  | Some f -> Frame.decref pool f
  | None -> ()

let is_armed t pindex =
  match page t pindex with Some c -> has c (offset pindex) armed | None -> false

let cow_breaks t = t.cow_breaks
let reset_cow_breaks t = t.cow_breaks <- 0

let armed_count t = fold_present t 0 (fun n c i _ -> if has c i armed then n + 1 else n)

let dirty_count t = t.ndirty

let set_dirty t c i =
  let b = bits c i in
  if b land dirty = 0 then begin
    set_bits c i (b lor dirty);
    t.ndirty <- t.ndirty + 1
  end

let mark_dirty t pindex = Option.iter (fun c -> set_dirty t c (offset pindex)) (page t pindex)

let disarm_for_write t pindex =
  let i = offset pindex in
  match page t pindex with
  | Some c when has c i armed -> (
    match c.slots.(i) with
    | Resident old_frame ->
      (* Aurora's COW: a new page shared between all processes mapping
         this object; the old frame stays alive while the flusher holds
         its reference. *)
      let fresh = Frame.alloc t.pool old_frame.Frame.content in
      Frame.decref t.pool old_frame;
      c.slots.(i) <- Resident fresh;
      set_bits c i (bits c i land lnot armed);
      t.cow_breaks <- t.cow_breaks + 1;
      set_dirty t c i;
      fresh
    | Paged_out _ -> invalid_arg "Vmobject.disarm_for_write: page not resident")
  | Some _ | None -> invalid_arg "Vmobject.disarm_for_write: page not armed"

(* --- heat / clock ------------------------------------------------- *)

let touch t pindex =
  match page t pindex with
  | Some c ->
    let i = offset pindex in
    (match c.slots.(i) with Resident f -> f.Frame.accessed <- true | Paged_out _ -> ());
    c.heat.(i) <- c.heat.(i) + 1
  | None -> ()

let heat t pindex = match page t pindex with Some c -> c.heat.(offset pindex) | None -> 0
let age_heat t = fold_present t () (fun () c i _ -> c.heat.(i) <- c.heat.(i) / 2)

let hot_pages t ~limit =
  if limit < 0 then invalid_arg "Vmobject.hot_pages: negative limit";
  (* A min-heap of the hottest pages seen so far, rooted at the one that
     ranks last (coldest, then highest index). Pages arrive in index
     order, so a later page displaces the root only when strictly
     hotter: ties go to the lower page index. *)
  let heap = Array.make (min limit (Array.length t.chunks * chunk_pages)) 0 and n = ref 0 in
  let below a b =
    let ha = heat t heap.(a) and hb = heat t heap.(b) in
    ha < hb || (ha = hb && heap.(a) > heap.(b))
  in
  let rec sift_down k =
    let l = (2 * k) + 1 in
    let m = if l < !n && below l k then l else k in
    let m = if l + 1 < !n && below (l + 1) m then l + 1 else m in
    if m <> k then begin
      let p = heap.(k) in
      heap.(k) <- heap.(m);
      heap.(m) <- p;
      sift_down m
    end
  in
  let heapify () = for k = (!n / 2) - 1 downto 0 do sift_down k done in
  fold_present t () (fun () c i pindex ->
      let h = c.heat.(i) in
      if h > 0 && !n < Array.length heap then begin
        heap.(!n) <- pindex;
        incr n;
        if !n = Array.length heap then heapify ()
      end
      else if !n > 0 && h > heat t heap.(0) then begin
        heap.(0) <- pindex;
        sift_down 0
      end);
  heapify ();
  (* Popping the root repeatedly yields the survivors coldest first. *)
  let hot = ref [] in
  while !n > 0 do
    decr n;
    hot := heap.(0) :: !hot;
    heap.(0) <- heap.(!n);
    sift_down 0
  done;
  !hot

(* --- iteration / stats -------------------------------------------- *)

let fold_pages t ~init ~f = fold_present t init (fun acc c i pindex -> f acc pindex c.slots.(i))

let resident_count t =
  fold_present t 0 (fun n c i _ ->
      match c.slots.(i) with Resident _ -> n + 1 | Paged_out _ -> n)

let rec chain_depth t =
  match t.shadow with None -> 1 | Some backing -> 1 + chain_depth backing
