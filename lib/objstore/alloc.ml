(* Bits of a block's role byte: what its content hash is used for. *)
let role_checksum = 1
let role_dedup = 2

(* The hash column holds per block an 8-byte content hash, then its
   role byte. *)
let stride = 9

type t = {
  first_block : int;
  capacity_blocks : int option;
  stripes : int;
  mutable refs : int array;     (* refcount by block number; 0 = free *)
  mutable hashes : Bytes.t;     (* [stride] bytes per block; empty until first used *)
  mutable mirrors : int array;  (* mirror block, -1 for none; empty until first used *)
  by_hash : (int64, int) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable bytes_saved : int;
  mutable free_list : int list;
  mutable next_fresh : int;
  mutable live : int;
  mutable defer_frees : bool;
  mutable parked : int list;
  mutable on_pressure : (unit -> bool) option;
}

exception Out_of_space

let create ~first_block ?capacity_blocks ?(stripes = 1) () =
  if first_block < 0 then invalid_arg "Alloc.create: negative first_block";
  if stripes < 1 then invalid_arg "Alloc.create: stripe count must be >= 1";
  { first_block; capacity_blocks; stripes; refs = [||]; hashes = Bytes.empty;
    mirrors = [||]; by_hash = Hashtbl.create 4096; hits = 0; misses = 0;
    bytes_saved = 0; free_list = []; next_fresh = first_block; live = 0;
    defer_frees = false; parked = []; on_pressure = None }

(* --- the dense columns ------------------------------------------------ *)

(* Make [block] addressable in every allocated column, doubling. *)
let cover t block =
  let len = Array.length t.refs in
  if block >= len then begin
    let grow = max (block + 1) (max 64 (2 * len)) - len in
    t.refs <- Array.append t.refs (Array.make grow 0);
    if Bytes.length t.hashes > 0 then
      t.hashes <- Bytes.cat t.hashes (Bytes.make (stride * grow) '\000');
    if Array.length t.mirrors > 0 then
      t.mirrors <- Array.append t.mirrors (Array.make grow (-1))
  end

let role t block =
  if block >= 0 && stride * block < Bytes.length t.hashes then
    Bytes.get_uint8 t.hashes ((stride * block) + 8)
  else 0

let set_role t block r = Bytes.set_uint8 t.hashes ((stride * block) + 8) r
let hash_of t block = Bytes.get_int64_le t.hashes (stride * block)

(* Give [block] content hash [h] for role [r]. Both roles hash the same
   content with the same function, so a second role must agree. *)
let add_role t block r h =
  cover t block;
  if Bytes.length t.hashes = 0 then
    t.hashes <- Bytes.make (stride * Array.length t.refs) '\000';
  let old = role t block in
  if old land lnot r <> 0 && hash_of t block <> h then
    invalid_arg (Printf.sprintf "Alloc: block %d already holds other content" block);
  Bytes.set_int64_le t.hashes (stride * block) h;
  set_role t block (old lor r)

let checksum t block =
  if role t block land role_checksum <> 0 then Some (hash_of t block) else None

let set_checksum t block h = add_role t block role_checksum h

let mirror t block =
  if block >= 0 && block < Array.length t.mirrors && t.mirrors.(block) >= 0 then
    Some t.mirrors.(block)
  else None

let set_mirror t block m =
  cover t block;
  if Array.length t.mirrors = 0 then t.mirrors <- Array.make (Array.length t.refs) (-1);
  t.mirrors.(block) <- m

let iter_checksums t f =
  for b = 0 to (Bytes.length t.hashes / stride) - 1 do
    if role t b land role_checksum <> 0 then f b (hash_of t b)
  done

let iter_mirrors t f = Array.iteri (fun b m -> if m >= 0 then f b m) t.mirrors

(* --- allocation -------------------------------------------------------- *)

let set_deferred_frees t v = t.defer_frees <- v
let set_pressure_hook t f = t.on_pressure <- Some f

let take_parked t =
  let p = t.parked in
  t.parked <- [];
  p

let release t blocks = t.free_list <- blocks @ t.free_list

(* Capacity pressure: before declaring the device full, give the owner
   a chance to settle deferred frees (blocks parked until the
   superblock that stops referencing them is durable). The hook
   returns true when it released something worth retrying for. *)
let under_pressure t =
  match t.on_pressure with None -> false | Some f -> f ()

let rec alloc t =
  match t.free_list with
  | b :: rest ->
    t.free_list <- rest;
    t.refs.(b) <- 1;
    t.live <- t.live + 1;
    b
  | [] ->
    let b = t.next_fresh in
    (match t.capacity_blocks with
     | Some cap when b >= cap ->
       if under_pressure t then alloc t else raise Out_of_space
     | _ ->
       t.next_fresh <- b + 1;
       cover t b;
       t.refs.(b) <- 1;
       t.live <- t.live + 1;
       b)

(* A stripe-aware extent: [n] fresh {e contiguous} logical blocks.
   Under the device array's round-robin striping a contiguous logical
   run fans out across every stripe while staying physically
   contiguous on each device — the flush then needs one transfer per
   device instead of one per block. Extents larger than one stripe
   round are aligned to a stripe boundary so every device's share
   starts at the same physical offset. *)
let rec alloc_extent t n =
  if n < 0 then invalid_arg "Alloc.alloc_extent: negative size";
  if n = 0 then [||]
  else begin
    let start =
      if n < t.stripes || t.next_fresh mod t.stripes = 0 then t.next_fresh
      else begin
        let aligned = (t.next_fresh / t.stripes + 1) * t.stripes in
        (* The skipped tail of the partial stripe round is not lost:
           singleton allocations drain it from the free list. *)
        cover t (aligned - 1);
        for b = aligned - 1 downto t.next_fresh do
          t.free_list <- b :: t.free_list
        done;
        aligned
      end
    in
    match t.capacity_blocks with
    | Some cap when start + n > cap ->
      (* Extents only take fresh space, so the pressure hook can't
         satisfy us directly — but settling deferred frees lets the
         caller fall back to singleton allocations from the free
         list. Retry once in case the pen covered the fresh tail. *)
      if under_pressure t then alloc_extent t n else raise Out_of_space
    | _ ->
      t.next_fresh <- start + n;
      t.live <- t.live + n;
      cover t (start + n - 1);
      Array.fill t.refs start n 1;
      Array.init n (fun i -> start + i)
  end

let refcount t block =
  if block >= 0 && block < Array.length t.refs then t.refs.(block) else 0

let incref t block =
  if refcount t block > 0 then t.refs.(block) <- t.refs.(block) + 1
  else invalid_arg (Printf.sprintf "Alloc.incref: dead block %d" block)

let rec decref t block =
  match refcount t block with
  | n when n > 1 -> t.refs.(block) <- n - 1
  | 1 ->
    t.refs.(block) <- 0;
    (* The entry is cleared at free time either way; deferral only
       gates when the block becomes reusable (see Store's
       superblock-durability pen). *)
    if t.defer_frees then t.parked <- block :: t.parked
    else t.free_list <- block :: t.free_list;
    t.live <- t.live - 1;
    let r = role t block in
    if r land role_dedup <> 0 then Hashtbl.remove t.by_hash (hash_of t block);
    if r <> 0 then set_role t block 0;
    (match mirror t block with
     | Some m ->
       t.mirrors.(block) <- -1;
       decref t m
     | None -> ())
  | _ -> invalid_arg (Printf.sprintf "Alloc.decref: dead block %d" block)

let live_blocks t = t.live

let bump_fresh t block = if block >= t.next_fresh then t.next_fresh <- block + 1

let mark_live t block =
  cover t block;
  let n = t.refs.(block) in
  t.refs.(block) <- n + 1;
  if n = 0 then t.live <- t.live + 1;
  if block >= t.next_fresh then t.next_fresh <- block + 1;
  n = 0

let reset t =
  Array.fill t.refs 0 (Array.length t.refs) 0;
  Hashtbl.reset t.by_hash;
  for b = 0 to (Bytes.length t.hashes / stride) - 1 do
    set_role t b (role t b land lnot role_dedup)
  done;
  t.free_list <- [];
  t.parked <- [];
  t.next_fresh <- t.first_block;
  t.live <- 0

let prune t =
  Array.iteri
    (fun b n ->
      if n = 0 then begin
        if role t b <> 0 then set_role t b 0;
        if b < Array.length t.mirrors then t.mirrors.(b) <- -1
      end)
    t.refs

(* --- deduplication ------------------------------------------------------ *)

let dedup_peek t ~hash = Hashtbl.find_opt t.by_hash hash

let dedup_find t ~hash =
  match Hashtbl.find_opt t.by_hash hash with
  | Some block ->
    t.hits <- t.hits + 1;
    Some block
  | None ->
    t.misses <- t.misses + 1;
    None

let dedup_add t ~hash ~block =
  (match Hashtbl.find_opt t.by_hash hash with
   | Some existing when existing <> block ->
     invalid_arg "Alloc.dedup_add: hash already mapped to a different block"
   | Some _ | None -> ());
  add_role t block role_dedup hash;
  Hashtbl.replace t.by_hash hash block

let note_saved t ~bytes =
  if bytes < 0 then invalid_arg "Alloc.note_saved: negative size";
  t.bytes_saved <- t.bytes_saved + bytes

let dedup_entries t = Hashtbl.length t.by_hash
let dedup_hits t = t.hits
let dedup_misses t = t.misses
let dedup_bytes_saved t = t.bytes_saved
