open Aurora_simtime
open Aurora_device
open Aurora_posix

type value = Imm of int64 | Ptr of int

(* Maximum entries per node, sized so an encoded node fits one 4 KiB
   block: leaf entries are 17 bytes, internal entries 16. *)
let max_entries = 200

(* Node layout (btree.mli). A clean node is exactly as long as its
   encoding; a writable one is a private block-sized buffer. *)
let hdr = 9
let leaf_stride = 17

type cached = { mutable buf : Bytes.t; mutable epoch : int }

type t = {
  dev : Devarray.t;
  alloc : Alloc.t;
  cache : (int, cached) Hashtbl.t;
  mutable current_epoch : int;
  mutable reader : (int -> Blockdev.content) option;
}

let create ~dev ~alloc =
  { dev; alloc; cache = Hashtbl.create 1024; current_epoch = 0; reader = None }

let set_reader t f = t.reader <- Some f

let begin_epoch t n = t.current_epoch <- n

(* --- node layout ---------------------------------------------------- *)

let is_leaf b = Bytes.get_uint8 b 0 = 0
let get_int b off = Int64.to_int (Bytes.get_int64_le b off)
let set_int b off v = Bytes.set_int64_le b off (Int64.of_int v)
let count b = get_int b 1
let leaf_off i = hdr + (leaf_stride * i)
let key_off i = hdr + (8 * i)
let child_off n j = key_off n + 8 + (8 * j)
let node_len b = if is_leaf b then leaf_off (count b) else child_off (count b) (count b + 1)
let writable c = Bytes.length c.buf = Blockdev.block_size

(* An internal node's child count sits between its keys and children. *)
let set_count b n =
  set_int b 1 n;
  if not (is_leaf b) then set_int b (key_off n) (n + 1)

let leaf_key b i = Bytes.get_int64_le b (leaf_off i)

let leaf_value b i =
  let o = leaf_off i + 9 in
  if Bytes.get_uint8 b (o - 1) = 0 then Imm (Bytes.get_int64_le b o) else Ptr (get_int b o)

let set_leaf b i (k : int64) v =
  Bytes.set_int64_le b (leaf_off i) k;
  let tag, x = match v with Imm x -> (0, x) | Ptr p -> (1, Int64.of_int p) in
  Bytes.set_uint8 b (leaf_off i + 8) tag;
  Bytes.set_int64_le b (leaf_off i + 9) x

(* How many of the [n] ascending keys [stride] bytes apart sort before
   [key] (or equal it too, when [incl]). Child [i] of an internal node
   covers keys in [key (i-1), key i), so its rank with [incl] picks the
   child for a key. *)
let rank b ~stride ~n ~incl (key : int64) =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) lsr 1 in
      let k = Bytes.get_int64_le b (hdr + (stride * mid)) in
      if k < key || (incl && k = key) then go (mid + 1) hi else go lo mid
  in
  go 0 n

(* Every outgoing reference: a leaf's [Ptr] values or an internal
   node's children. *)
let iter_refs b f =
  let n = count b in
  if is_leaf b then
    for i = 0 to n - 1 do
      if Bytes.get_uint8 b (leaf_off i + 8) = 1 then f (get_int b (leaf_off i + 9))
    done
  else for j = 0 to n do f (get_int b (child_off n j)) done

let fresh_node ~leaf =
  let b = Bytes.create Blockdev.block_size in
  Bytes.set_uint8 b 0 (if leaf then 0 else 1);
  set_count b 0;
  b

(* Open a [width]-byte gap at [off] in a node [len] bytes long. *)
let gap b off width len = Bytes.blit b off b (off + width) (len - off)

(* Binary search trusts what it reads, so a node from the device must
   have known tags, the length its count implies and strictly
   ascending keys. *)
let check s =
  let corrupt fmt = Printf.ksprintf (fun m -> raise (Serial.Corrupt ("Btree: " ^ m))) fmt in
  let b = Bytes.unsafe_of_string s and len = String.length s in
  if len < hdr then corrupt "truncated node: %d bytes" len;
  let leaf = is_leaf b and n = count b in
  if Bytes.get_uint8 b 0 > 1 then corrupt "bad node tag %d" (Bytes.get_uint8 b 0);
  if n < 0 || n > max_entries then corrupt "bad entry count %d" n;
  if len <> node_len b then corrupt "node is %d bytes, its count implies %d" len (node_len b);
  if (not leaf) && get_int b (key_off n) <> n + 1 then corrupt "child/key count mismatch";
  let key i = Bytes.get_int64_le b (hdr + ((if leaf then leaf_stride else 8) * i)) in
  for i = 0 to n - 1 do
    if leaf && Bytes.get_uint8 b (leaf_off i + 8) > 1 then
      corrupt "bad value tag %d" (Bytes.get_uint8 b (leaf_off i + 8));
    if i > 0 && key (i - 1) >= key i then corrupt "keys out of order at entry %d" i
  done

(* --- cache --------------------------------------------------------- *)

let read_cached t block =
  match Hashtbl.find_opt t.cache block with
  | Some c -> c
  | None ->
    let read = Option.value t.reader ~default:(Devarray.read t.dev) in
    let buf =
      match read block with
      | Blockdev.Data s ->
        check s;
        (* Shared with the device and never written: only a private
           copy from [cow] or [new_node] is mutable. *)
        Bytes.unsafe_of_string s
      | Blockdev.Seed _ | Blockdev.Zero ->
        raise (Serial.Corrupt (Printf.sprintf "Btree: block %d is not a node" block))
    in
    let c = { buf; epoch = -1 } in
    Hashtbl.replace t.cache block c;
    c

let node t block = (read_cached t block).buf

let new_node t buf =
  let block = Alloc.alloc t.alloc in
  Hashtbl.replace t.cache block { buf; epoch = t.current_epoch };
  block

let empty_root t = new_node t (fresh_node ~leaf:true)

let private_copy b = Bytes.extend b 0 (Blockdev.block_size - Bytes.length b)

(* Make the node at [block] writable in the current epoch; returns the
   block to use (either the same, or a private copy). The caller owns
   fixing up the parent edge (and decreffing [block] if the edge
   moves). The tree holds one reference per edge (parent -> child) and
   per Ptr value stored in a leaf, so a copy duplicates all of the
   node's outgoing references. *)
let cow t block =
  let c = read_cached t block in
  if c.epoch = t.current_epoch then begin
    (* Flushed earlier in this epoch: rewrite the same block. *)
    if not (writable c) then c.buf <- private_copy c.buf;
    block
  end
  else begin
    iter_refs c.buf (Alloc.incref t.alloc);
    new_node t (private_copy c.buf)
  end

(* --- search -------------------------------------------------------- *)

let rec find t ~root key =
  let b = node t root in
  let n = count b in
  if is_leaf b then
    let i = rank b ~stride:leaf_stride ~n ~incl:false key in
    if i < n && leaf_key b i = key then Some (leaf_value b i) else None
  else find t ~root:(get_int b (child_off n (rank b ~stride:8 ~n ~incl:true key))) key

(* --- release / retain ---------------------------------------------- *)

let retain_root t root = Alloc.incref t.alloc root

let rec release_root t block =
  let b = node t block in
  if Alloc.refcount t.alloc block = 1 then begin
    iter_refs b (if is_leaf b then Alloc.decref t.alloc else release_root t);
    Alloc.decref t.alloc block;
    (* Only the tree frees node blocks, and a freed block can be
       reallocated with new content: evict it here. *)
    Hashtbl.remove t.cache block
  end
  else Alloc.decref t.alloc block

(* --- insert -------------------------------------------------------- *)

(* Give an internal node key [sep] at [idx] and [child] right after
   child [idx]. *)
let add_child b idx sep child =
  let n = count b and len = node_len b in
  gap b (child_off n (idx + 1)) 8 len;
  set_int b (child_off n (idx + 1)) child;
  gap b (key_off idx) 8 (len + 8);
  Bytes.set_int64_le b (key_off idx) sep;
  set_count b (n + 1)

(* Split an over-full writable node: a leaf keeps its first n/2
   entries, an internal node promotes key n/2. Returns the separator
   and the new right sibling. *)
let split_node t b =
  let n = count b and m = count b / 2 and leaf = is_leaf b in
  let r = fresh_node ~leaf in
  let sep = Bytes.get_int64_le b (if leaf then leaf_off m else key_off m) in
  if leaf then Bytes.blit b (leaf_off m) r hdr (leaf_stride * (n - m))
  else begin
    Bytes.blit b (key_off (m + 1)) r hdr (8 * (n - m - 1));
    Bytes.blit b (child_off n (m + 1)) r (child_off (n - m - 1) 0) (8 * (n - m));
    Bytes.blit b (child_off n 0) b (child_off m 0) (8 * (m + 1))
  end;
  set_count r (if leaf then n - m else n - m - 1);
  set_count b m;
  (sep, new_node t r)

(* Insert into the subtree at [block]; returns the new block for this
   subtree plus an optional (separator, right sibling) when it split.
   The caller owns the edge to [block]: if the returned block differs,
   the caller must decref [block] and point its edge at the new one. *)
let rec insert_rec t block key value =
  let wblock = cow t block in
  let b = node t wblock in
  let n = count b in
  if is_leaf b then begin
    let i = rank b ~stride:leaf_stride ~n ~incl:false key in
    if i < n && leaf_key b i = key then
      (match leaf_value b i with Ptr old -> Alloc.decref t.alloc old | Imm _ -> ())
    else begin
      gap b (leaf_off i) leaf_stride (leaf_off n);
      set_count b (n + 1)
    end;
    set_leaf b i key value
  end
  else begin
    let idx = rank b ~stride:8 ~n ~incl:true key in
    let old_child = get_int b (child_off n idx) in
    let new_child, split = insert_rec t old_child key value in
    if new_child <> old_child then begin
      (* The edge moved to the private copy; dropping the old edge may
         orphan a whole subtree (cascade). *)
      release_root t old_child;
      set_int b (child_off n idx) new_child
    end;
    Option.iter (fun (sep, rblock) -> add_child b idx sep rblock) split
  end;
  if count b <= max_entries then (wblock, None) else (wblock, Some (split_node t b))

(* Consumes the caller's reference on [root]; the returned root carries
   the caller's reference instead. *)
let insert t ~root ~key value =
  let new_root, split = insert_rec t root key value in
  if new_root <> root then
    (* The caller's working reference moves to the private copy; if no
       generation still names the original, it is released in full. *)
    release_root t root;
  match split with
  | None -> new_root
  | Some (sep, rblock) ->
    (* The children's existing references become the new root's edges;
       the caller's reference is the fresh node itself. *)
    let b = fresh_node ~leaf:false in
    set_int b (child_off 0 0) new_root;
    add_child b 0 sep rblock;
    new_node t b

(* --- traversal ----------------------------------------------------- *)

let rec fold_range t ~root ~lo ~hi ~init ~f =
  let b = node t root in
  let n = count b in
  let acc = ref init in
  if is_leaf b then
    for i = rank b ~stride:leaf_stride ~n ~incl:false lo to n - 1 do
      let k = leaf_key b i in
      if k <= hi then acc := f !acc k (leaf_value b i)
    done
  else
    for i = 0 to n do
      let child_lo = if i = 0 then Int64.min_int else Bytes.get_int64_le b (key_off (i - 1)) in
      let child_hi = if i = n then Int64.max_int else Bytes.get_int64_le b (key_off i) in
      if child_lo <= hi && lo < child_hi then
        acc := fold_range t ~root:(get_int b (child_off n i)) ~lo ~hi ~init:!acc ~f
    done;
  !acc

(* --- flushing / cache management ----------------------------------- *)

(* Every writable node is dirty; writing it makes it clean again as the
   very string the device now holds. *)
let flush_dirty ?tee ?cls t =
  let dirty =
    Hashtbl.fold (fun b c acc -> if writable c then (b, c) :: acc else acc) t.cache []
  in
  let writes =
    List.sort (fun (a, _) (b, _) -> Int.compare a b) dirty
    |> List.map (fun (b, c) ->
           let s = Bytes.sub_string c.buf 0 (node_len c.buf) in
           c.buf <- Bytes.unsafe_of_string s;
           (b, Blockdev.Data s))
  in
  let writes = match tee with Some f -> writes @ f writes | None -> writes in
  if writes = [] then Clock.now (Devarray.clock t.dev)
  else Devarray.write_async ?cls t.dev writes

let cached_count t = Hashtbl.length t.cache

let drop_cache t =
  if Seq.exists writable (Hashtbl.to_seq_values t.cache) then
    invalid_arg "Btree.drop_cache: dirty nodes remain";
  Hashtbl.reset t.cache

let reset_cache t = Hashtbl.reset t.cache

type view = Leaf_view of (int64 * value) list | Internal_view of int list

let view t block =
  let b = node t block in
  let n = count b in
  if is_leaf b then Leaf_view (List.init n (fun i -> (leaf_key b i, leaf_value b i)))
  else Internal_view (List.init (n + 1) (fun j -> get_int b (child_off n j)))

let rec node_depth t ~root =
  let b = node t root in
  if is_leaf b then 1 else 1 + node_depth t ~root:(get_int b (child_off (count b) 0))
