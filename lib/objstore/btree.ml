open Aurora_simtime
open Aurora_device
open Aurora_posix

type value = Imm of int64 | Ptr of int

(* Maximum entries per node, sized so an encoded node fits one 4 KiB
   block: leaf entries are 17 bytes, internal entries 16. *)
let max_entries = 200

type node =
  | Leaf of (int64 * value) list        (* sorted by key *)
  | Internal of int64 list * int list   (* n keys, n+1 children *)

type cached = { mutable node : node; mutable epoch : int; mutable dirty : bool }

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

(* --- node encoding ------------------------------------------------- *)

let encode_node node =
  let w = Serial.writer () in
  (match node with
   | Leaf entries ->
     Serial.w_u8 w 0;
     Serial.w_list w (fun w (k, v) ->
         Serial.w_int64 w k;
         match v with
         | Imm x ->
           Serial.w_u8 w 0;
           Serial.w_int64 w x
         | Ptr b ->
           Serial.w_u8 w 1;
           Serial.w_int w b)
       entries
   | Internal (keys, children) ->
     Serial.w_u8 w 1;
     Serial.w_list w Serial.w_int64 keys;
     Serial.w_list w Serial.w_int children);
  let s = Serial.contents w in
  assert (String.length s <= Blockdev.block_size);
  s

let decode_node data =
  let r = Serial.reader data in
  match Serial.r_u8 r with
  | 0 ->
    Leaf
      (Serial.r_list r (fun r ->
           let k = Serial.r_int64 r in
           let v =
             match Serial.r_u8 r with
             | 0 -> Imm (Serial.r_int64 r)
             | 1 -> Ptr (Serial.r_int r)
             | tag -> raise (Serial.Corrupt (Printf.sprintf "Btree: bad value tag %d" tag))
           in
           (k, v)))
  | 1 ->
    let keys = Serial.r_list r Serial.r_int64 in
    let children = Serial.r_list r Serial.r_int in
    if List.length children <> List.length keys + 1 then
      raise (Serial.Corrupt "Btree: child/key count mismatch");
    Internal (keys, children)
  | tag -> raise (Serial.Corrupt (Printf.sprintf "Btree: bad node tag %d" tag))

(* --- cache --------------------------------------------------------- *)

let read_cached t block =
  match Hashtbl.find_opt t.cache block with
  | Some c -> c
  | None ->
    let raw =
      match t.reader with
      | Some f -> f block
      | None -> Devarray.read t.dev block
    in
    let node =
      match raw with
      | Blockdev.Data s -> decode_node s
      | Blockdev.Seed _ | Blockdev.Zero ->
        raise (Serial.Corrupt (Printf.sprintf "Btree: block %d is not a node" block))
    in
    let c = { node; epoch = -1; dirty = false } in
    Hashtbl.replace t.cache block c;
    c

let new_node t node =
  let block = Alloc.alloc t.alloc in
  Hashtbl.replace t.cache block { node; epoch = t.current_epoch; dirty = true };
  block

let empty_root t = new_node t (Leaf [])

(* Reference bookkeeping: the tree holds one reference per edge
   (parent -> child) and per Ptr value stored in a leaf. Copying a
   node duplicates all its outgoing references. *)
let incref_contents t = function
  | Leaf entries ->
    List.iter (function _, Ptr b -> Alloc.incref t.alloc b | _, Imm _ -> ()) entries
  | Internal (_, children) -> List.iter (Alloc.incref t.alloc) children

(* Make the node at [block] writable in the current epoch; returns the
   block to use (either the same, or a private copy). The caller owns
   fixing up the parent edge (and decreffing [block] if the edge
   moves). *)
let cow t block =
  let c = read_cached t block in
  if c.epoch = t.current_epoch then block
  else begin
    incref_contents t c.node;
    new_node t c.node
  end

(* --- search -------------------------------------------------------- *)

let rec child_index keys key i =
  match keys with
  | [] -> i
  | k :: rest -> if key < k then i else child_index rest key (i + 1)

let rec find t ~root key =
  match (read_cached t root).node with
  | Leaf entries -> List.assoc_opt key entries
  | Internal (keys, children) ->
    let idx = child_index keys key 0 in
    find t ~root:(List.nth children idx) key

(* --- release / retain ---------------------------------------------- *)

let retain_root t root = Alloc.incref t.alloc root

let rec release_root t block =
  let node = (read_cached t block).node in
  if Alloc.refcount t.alloc block = 1 then begin
    (match node with
     | Leaf entries ->
       List.iter (function _, Ptr b -> Alloc.decref t.alloc b | _, Imm _ -> ()) entries
     | Internal (_, children) -> List.iter (release_root t) children);
    Alloc.decref t.alloc block;
    (* Only the tree frees node blocks, and a freed block can be
       reallocated with new content: evict it here. *)
    Hashtbl.remove t.cache block
  end
  else Alloc.decref t.alloc block

(* --- insert -------------------------------------------------------- *)

let split_leaf entries =
  let n = List.length entries in
  let rec take i = function
    | [] -> ([], [])
    | x :: rest ->
      if i = 0 then ([], x :: rest)
      else
        let l, r = take (i - 1) rest in
        (x :: l, r)
  in
  let left, right = take (n / 2) entries in
  match right with
  | (sep, _) :: _ -> (left, sep, right)
  | [] -> invalid_arg "split_leaf: empty right half"

let split_internal keys children =
  (* Promote the middle key; left keeps [0, mid), right keeps
     (mid, n). *)
  let ka = Array.of_list keys and ca = Array.of_list children in
  let mid = Array.length ka / 2 in
  let sep = ka.(mid) in
  let lkeys = Array.to_list (Array.sub ka 0 mid) in
  let lchildren = Array.to_list (Array.sub ca 0 (mid + 1)) in
  let rkeys = Array.to_list (Array.sub ka (mid + 1) (Array.length ka - mid - 1)) in
  let rchildren = Array.to_list (Array.sub ca (mid + 1) (Array.length ca - mid - 1)) in
  (lkeys, lchildren, sep, rkeys, rchildren)

(* Insert into the subtree at [block]; returns the new block for this
   subtree plus an optional (separator, right sibling) when it split.
   The caller owns the edge to [block]: if the returned block differs,
   the caller must decref [block] and point its edge at the new one. *)
let rec insert_rec t block key value =
  let wblock = cow t block in
  let c = read_cached t wblock in
  match c.node with
  | Leaf entries ->
    let replaced = List.assoc_opt key entries in
    (match replaced with
     | Some (Ptr old) -> Alloc.decref t.alloc old
     | Some (Imm _) | None -> ());
    let entries =
      let without = if replaced = None then entries else List.remove_assoc key entries in
      List.merge (fun (a, _) (b, _) -> Int64.compare a b) without [ (key, value) ]
    in
    if List.length entries <= max_entries then begin
      c.node <- Leaf entries;
      c.dirty <- true;
      (wblock, None)
    end
    else begin
      let left, sep, right = split_leaf entries in
      c.node <- Leaf left;
      c.dirty <- true;
      let rblock = new_node t (Leaf right) in
      (wblock, Some (sep, rblock))
    end
  | Internal (keys, children) ->
    let idx = child_index keys key 0 in
    let old_child = List.nth children idx in
    let new_child, split = insert_rec t old_child key value in
    let children =
      if new_child == old_child then children
      else begin
        (* The edge moved to the private copy; dropping the old edge
           may orphan a whole subtree (cascade). *)
        release_root t old_child;
        List.mapi (fun i ch -> if i = idx then new_child else ch) children
      end
    in
    let keys, children =
      match split with
      | None -> (keys, children)
      | Some (sep, rblock) ->
        let rec insert_at i ks cs =
          match (ks, cs) with
          | ks, c0 :: crest when i = 0 -> (sep :: ks, c0 :: rblock :: crest)
          | k0 :: krest, c0 :: crest ->
            let ks', cs' = insert_at (i - 1) krest crest in
            (k0 :: ks', c0 :: cs')
          | _ -> invalid_arg "Btree: malformed internal node"
        in
        insert_at idx keys children
    in
    if List.length keys <= max_entries then begin
      c.node <- Internal (keys, children);
      c.dirty <- true;
      (wblock, None)
    end
    else begin
      let lkeys, lchildren, sep, rkeys, rchildren = split_internal keys children in
      c.node <- Internal (lkeys, lchildren);
      c.dirty <- true;
      let rblock = new_node t (Internal (rkeys, rchildren)) in
      (wblock, Some (sep, rblock))
    end

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
    new_node t (Internal ([ sep ], [ new_root; rblock ]))

(* --- traversal ----------------------------------------------------- *)

let rec fold_range t ~root ~lo ~hi ~init ~f =
  match (read_cached t root).node with
  | Leaf entries ->
    List.fold_left
      (fun acc (k, v) -> if k >= lo && k <= hi then f acc k v else acc)
      init entries
  | Internal (keys, children) ->
    (* Visit children whose key range intersects [lo, hi]. Child i
       covers keys in [keys.(i-1), keys.(i)). *)
    let ka = Array.of_list keys in
    let n = Array.length ka in
    let acc = ref init in
    List.iteri
      (fun i child ->
        let child_lo = if i = 0 then Int64.min_int else ka.(i - 1) in
        let child_hi = if i = n then Int64.max_int else ka.(i) in
        if child_lo <= hi && lo < child_hi then
          acc := fold_range t ~root:child ~lo ~hi ~init:!acc ~f)
      children;
    !acc

(* --- flushing / cache management ----------------------------------- *)

let flush_dirty ?tee ?cls t =
  let dirty =
    Hashtbl.fold (fun b c acc -> if c.dirty then (b, c) :: acc else acc) t.cache []
  in
  let dirty = List.sort (fun (a, _) (b, _) -> Int.compare a b) dirty in
  let writes = List.map (fun (b, c) -> (b, Blockdev.Data (encode_node c.node))) dirty in
  List.iter (fun (_, c) -> c.dirty <- false) dirty;
  let writes =
    match tee with
    | Some f -> writes @ f writes
    | None -> writes
  in
  if writes = [] then Clock.now (Devarray.clock t.dev)
  else Devarray.write_async ?cls t.dev writes

let dirty_count t = Hashtbl.fold (fun _ c n -> if c.dirty then n + 1 else n) t.cache 0
let cached_count t = Hashtbl.length t.cache

let drop_cache t =
  if dirty_count t > 0 then invalid_arg "Btree.drop_cache: dirty nodes remain";
  Hashtbl.reset t.cache

let reset_cache t = Hashtbl.reset t.cache

type view = Leaf_view of (int64 * value) list | Internal_view of int list

let view t block =
  match (read_cached t block).node with
  | Leaf entries -> Leaf_view entries
  | Internal (_, children) -> Internal_view children

let rec node_depth t ~root =
  match (read_cached t root).node with
  | Leaf _ -> 1
  | Internal (_, children) -> 1 + node_depth t ~root:(List.hd children)
