(* Tests for the object store: reference-counted allocation, the COW
   B+tree (sharing across snapshots, release cascades), content
   deduplication, generation commit/readback, crash recovery through
   the dual superblocks, and in-place GC. *)

open Aurora_simtime
open Aurora_device
open Aurora_objstore

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mkdev ?(profile = Profile.optane_900p) ?stripes ?faults () =
  let clock = Clock.create () in
  (clock, Devarray.create ?stripes ?faults ~clock ~profile "store")

let fsck_problems (r : Store.fsck_report) =
  r.Store.problems
  @ List.map
      (fun (g, reason) -> Printf.sprintf "generation %d lost: %s" g reason)
      r.Store.lost

let expect_clean_fsck ?(scrub = false) what s =
  let r = Store.fsck ~scrub s in
  if not (Store.fsck_ok r) then
    Alcotest.failf "%s: %s" what (String.concat "; " (fsck_problems r))

(* ------------------------------------------------------------------ *)
(* Alloc                                                               *)
(* ------------------------------------------------------------------ *)

let test_alloc_reuse () =
  let a = Alloc.create ~first_block:2 () in
  let b1 = Alloc.alloc a in
  let b2 = Alloc.alloc a in
  check_bool "skips reserved" true (b1 >= 2 && b2 >= 2 && b1 <> b2);
  Alloc.decref a b1;
  check_int "freed block reused" b1 (Alloc.alloc a);
  check_int "live" 2 (Alloc.live_blocks a)

let test_alloc_refcounting () =
  let a = Alloc.create ~first_block:0 () in
  let b = Alloc.alloc a in
  Alloc.incref a b;
  Alloc.decref a b;
  check_int "still live" 1 (Alloc.refcount a b);
  Alloc.decref a b;
  check_int "freed" 0 (Alloc.refcount a b);
  check_bool "double free rejected" true
    (try
       Alloc.decref a b;
       false
     with Invalid_argument _ -> true)

let test_alloc_capacity () =
  let a = Alloc.create ~first_block:0 ~capacity_blocks:2 () in
  ignore (Alloc.alloc a);
  ignore (Alloc.alloc a);
  check_bool "full" true
    (try
       ignore (Alloc.alloc a);
       false
     with Alloc.Out_of_space -> true);
  (* Freeing makes space again: the condition is transient, not fatal. *)
  Alloc.decref a 0;
  check_int "freed block allocatable" 0 (Alloc.alloc a)

(* ------------------------------------------------------------------ *)
(* Btree                                                               *)
(* ------------------------------------------------------------------ *)

let mktree () =
  let _, dev = mkdev () in
  let alloc = Alloc.create ~first_block:2 () in
  (dev, alloc, Btree.create ~dev ~alloc)

let test_btree_insert_find () =
  let _, _, t = mktree () in
  Btree.begin_epoch t 1;
  let root = ref (Btree.empty_root t) in
  for i = 0 to 999 do
    root := Btree.insert t ~root:!root ~key:(Int64.of_int (i * 7)) (Btree.Imm (Int64.of_int i))
  done;
  for i = 0 to 999 do
    match Btree.find t ~root:!root (Int64.of_int (i * 7)) with
    | Some (Btree.Imm v) -> check_bool "value" true (Int64.to_int v = i)
    | _ -> Alcotest.failf "missing key %d" (i * 7)
  done;
  check_bool "absent key" true (Btree.find t ~root:!root 3L = None);
  check_bool "tree grew levels" true (Btree.node_depth t ~root:!root >= 2)

let test_btree_replace () =
  let _, alloc, t = mktree () in
  Btree.begin_epoch t 1;
  let root = ref (Btree.empty_root t) in
  let b1 = Alloc.alloc alloc in
  root := Btree.insert t ~root:!root ~key:5L (Btree.Ptr b1);
  let b2 = Alloc.alloc alloc in
  root := Btree.insert t ~root:!root ~key:5L (Btree.Ptr b2);
  check_int "replaced ptr freed" 0 (Alloc.refcount alloc b1);
  (match Btree.find t ~root:!root 5L with
   | Some (Btree.Ptr b) -> check_int "new value" b2 b
   | _ -> Alcotest.fail "lost key")

let test_btree_snapshot_isolation () =
  (* A committed root must keep answering with old values after new
     epochs modify the tree. *)
  let _, _, t = mktree () in
  Btree.begin_epoch t 1;
  let root1 = ref (Btree.empty_root t) in
  for i = 0 to 499 do
    root1 := Btree.insert t ~root:!root1 ~key:(Int64.of_int i) (Btree.Imm (Int64.of_int i))
  done;
  let snapshot = !root1 in
  Btree.retain_root t snapshot;
  Btree.begin_epoch t 2;
  let root2 = ref snapshot in
  Btree.retain_root t !root2;
  for i = 0 to 499 do
    if i mod 2 = 0 then
      root2 :=
        Btree.insert t ~root:!root2 ~key:(Int64.of_int i)
          (Btree.Imm (Int64.of_int (i + 1000)))
  done;
  (* Old snapshot unchanged. *)
  (match Btree.find t ~root:snapshot 10L with
   | Some (Btree.Imm v) -> check_bool "old value" true (Int64.equal v 10L)
   | _ -> Alcotest.fail "snapshot lost key");
  (* New root updated. *)
  (match Btree.find t ~root:!root2 10L with
   | Some (Btree.Imm v) -> check_bool "new value" true (Int64.equal v 1010L)
   | _ -> Alcotest.fail "new root lost key");
  (match Btree.find t ~root:!root2 11L with
   | Some (Btree.Imm v) -> check_bool "shared value" true (Int64.equal v 11L)
   | _ -> Alcotest.fail "shared key lost")

let test_btree_release_frees_all () =
  let _, alloc, t = mktree () in
  Btree.begin_epoch t 1;
  let root = ref (Btree.empty_root t) in
  for i = 0 to 2000 do
    root := Btree.insert t ~root:!root ~key:(Int64.of_int i) (Btree.Imm 0L)
  done;
  check_bool "many blocks live" true (Alloc.live_blocks alloc > 10);
  Btree.release_root t !root;
  check_int "everything freed" 0 (Alloc.live_blocks alloc)

let test_btree_release_preserves_shared () =
  let _, alloc, t = mktree () in
  Btree.begin_epoch t 1;
  let root1 = ref (Btree.empty_root t) in
  for i = 0 to 1000 do
    root1 := Btree.insert t ~root:!root1 ~key:(Int64.of_int i) (Btree.Imm (Int64.of_int i))
  done;
  let snap = !root1 in
  Btree.retain_root t snap;
  Btree.begin_epoch t 2;
  let root2 = ref snap in
  Btree.retain_root t !root2;
  for i = 0 to 20 do
    root2 := Btree.insert t ~root:!root2 ~key:(Int64.of_int i) (Btree.Imm 99L)
  done;
  (* Release the new tree: the snapshot must stay fully readable. *)
  Btree.release_root t !root2;
  for i = 0 to 1000 do
    match Btree.find t ~root:snap (Int64.of_int i) with
    | Some (Btree.Imm v) -> check_bool "intact" true (Int64.to_int v = i)
    | _ -> Alcotest.failf "snapshot lost key %d after release" i
  done;
  (* And releasing the snapshot (twice: its own ref + the retained
     one) frees everything. *)
  Btree.release_root t snap;
  Btree.release_root t snap;
  check_int "all freed" 0 (Alloc.live_blocks alloc)

let test_btree_persist_and_reread () =
  let _, dev = mkdev () in
  let alloc = Alloc.create ~first_block:2 () in
  let t = Btree.create ~dev ~alloc in
  Btree.begin_epoch t 1;
  let root = ref (Btree.empty_root t) in
  for i = 0 to 500 do
    root := Btree.insert t ~root:!root ~key:(Int64.of_int i) (Btree.Imm (Int64.of_int (2 * i)))
  done;
  let done_at = Btree.flush_dirty t in
  Devarray.await dev done_at;
  Btree.drop_cache t;
  check_int "cache empty" 0 (Btree.cached_count t);
  (* Reads now hit the device and still return the data. *)
  (match Btree.find t ~root:!root 321L with
   | Some (Btree.Imm v) -> check_bool "persisted value" true (Int64.equal v 642L)
   | _ -> Alcotest.fail "lost after reread");
  check_bool "device reads happened" true ((Devarray.stats dev).Blockdev.reads > 0)

let test_btree_fold_range () =
  let _, _, t = mktree () in
  Btree.begin_epoch t 1;
  let root = ref (Btree.empty_root t) in
  for i = 0 to 299 do
    root := Btree.insert t ~root:!root ~key:(Int64.of_int i) (Btree.Imm (Int64.of_int i))
  done;
  let keys =
    Btree.fold_range t ~root:!root ~lo:100L ~hi:110L ~init:[] ~f:(fun acc k _ -> k :: acc)
  in
  Alcotest.(check (list int))
    "range keys in order"
    [ 100; 101; 102; 103; 104; 105; 106; 107; 108; 109; 110 ]
    (List.rev_map Int64.to_int keys)

let prop_btree_matches_hashtable =
  QCheck.Test.make ~name:"btree agrees with a model hashtable" ~count:60
    QCheck.(list_of_size Gen.(int_range 1 400) (pair (int_bound 150) small_int))
    (fun ops ->
      let _, _, t = mktree () in
      Btree.begin_epoch t 1;
      let root = ref (Btree.empty_root t) in
      let model = Hashtbl.create 64 in
      List.iter
        (fun (k, v) ->
          Hashtbl.replace model k v;
          root :=
            Btree.insert t ~root:!root ~key:(Int64.of_int k) (Btree.Imm (Int64.of_int v)))
        ops;
      Hashtbl.fold
        (fun k v acc ->
          acc
          &&
          match Btree.find t ~root:!root (Int64.of_int k) with
          | Some (Btree.Imm x) -> Int64.to_int x = v
          | _ -> false)
        model true)


let prop_btree_fold_range_matches_model =
  QCheck.Test.make ~name:"fold_range returns exactly the model's keys in order" ~count:50
    QCheck.(triple
              (list_of_size Gen.(int_range 1 300) (int_bound 500))
              (int_bound 500) (int_bound 500))
    (fun (keys, a, b) ->
      let lo = min a b and hi = max a b in
      let _, _, t = mktree () in
      Btree.begin_epoch t 1;
      let root = ref (Btree.empty_root t) in
      List.iter
        (fun k ->
          root := Btree.insert t ~root:!root ~key:(Int64.of_int k)
              (Btree.Imm (Int64.of_int k)))
        keys;
      let expected =
        List.sort_uniq Int.compare keys
        |> List.filter (fun k -> k >= lo && k <= hi)
      in
      let got =
        Btree.fold_range t ~root:!root ~lo:(Int64.of_int lo) ~hi:(Int64.of_int hi)
          ~init:[] ~f:(fun acc k _ -> Int64.to_int k :: acc)
        |> List.rev
      in
      got = expected)

(* Every [Data] block on the device in block order, with its number. *)
let device_nodes dev =
  let used = Devarray.used_blocks dev in
  let rec go b seen acc =
    if seen = used then List.rev acc
    else
      match Devarray.peek dev b with
      | Blockdev.Data s -> go (b + 1) (seen + 1) ((b, s) :: acc)
      | Blockdev.Seed _ -> go (b + 1) (seen + 1) acc
      | Blockdev.Zero -> go (b + 1) seen acc
  in
  go 0 0 []

(* The node layout is the on-disk format: a fixed two-epoch history
   with leaf and internal splits and both value kinds must write
   exactly these bytes to exactly these blocks. *)
let test_btree_golden_format () =
  let dev, alloc, t = mktree () in
  Btree.begin_epoch t 1;
  let root = ref (Btree.empty_root t) in
  let ins k v = root := Btree.insert t ~root:!root ~key:k v in
  for i = 0 to 20_999 do
    ins (Int64.of_int (2 * i))
      (if i mod 7 = 0 then Btree.Ptr (Alloc.alloc alloc) else Btree.Imm (Int64.of_int (-3 * i)))
  done;
  ins Int64.min_int (Btree.Imm Int64.max_int);
  Devarray.await dev (Btree.flush_dirty t);
  check_int "internal split grew a third level" 3 (Btree.node_depth t ~root:!root);
  Btree.retain_root t !root;
  Btree.begin_epoch t 2;
  for i = 0 to 2_999 do
    let k = (i * 7919) mod 3_000 in
    ins (Int64.of_int ((14 * k) + 1)) (Btree.Imm (Int64.of_int k));
    if k mod 5 = 0 then ins (Int64.of_int (14 * k)) (Btree.Ptr (Alloc.alloc alloc))
  done;
  ins Int64.max_int (Btree.Imm Int64.min_int);
  Devarray.await dev (Btree.flush_dirty t);
  let buf = Buffer.create 4096 in
  List.iter (fun (b, s) -> Buffer.add_string buf (Printf.sprintf "%d:%s" b s)) (device_nodes dev);
  (* Recorded with the list-node implementation this layout replaced. *)
  Alcotest.(check string) "node blocks digest" "75cd81f1f02611fad0bc212ad7c11a5f"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* A committed node is immutable: inserting into every leaf of the
   next epoch (and of the one after, from cold-read nodes) leaves the
   bytes the device already holds untouched. *)
let test_btree_committed_nodes_immutable () =
  let dev, _, t = mktree () in
  Btree.begin_epoch t 1;
  let root = ref (Btree.empty_root t) in
  for i = 0 to 1_999 do
    root := Btree.insert t ~root:!root ~key:(Int64.of_int (4 * i)) (Btree.Imm (Int64.of_int i))
  done;
  let epoch e ~drop offset =
    Devarray.await dev (Btree.flush_dirty t);
    if drop then Btree.drop_cache t;
    let copy s = String.init (String.length s) (String.get s) in
    let saved = List.map (fun (b, s) -> (b, s, copy s)) (device_nodes dev) in
    let snap = !root in
    Btree.retain_root t snap;
    Btree.begin_epoch t e;
    for i = 0 to 1_999 do
      root := Btree.insert t ~root:!root ~key:(Int64.of_int ((4 * i) + offset)) (Btree.Imm 0L)
    done;
    let unchanged () =
      List.iter
        (fun (b, s, copy) ->
          check_bool (Printf.sprintf "epoch %d: shared bytes of block %d" e b) true
            (String.equal s copy);
          check_bool (Printf.sprintf "epoch %d: device block %d" e b) true
            (Devarray.peek dev b = Blockdev.Data copy))
        saved
    in
    unchanged ();
    Devarray.await dev (Btree.flush_dirty t);
    unchanged ();
    check_bool "snapshot reads its own value" true
      (Btree.find t ~root:snap (Int64.of_int (4 * 1_999)) = Some (Btree.Imm 1_999L))
  in
  epoch 2 ~drop:false 1;
  epoch 3 ~drop:true 2

(* Crafted nodes a binary search could not trust are rejected when read. *)
let test_btree_rejects_bad_nodes () =
  let dev, _, t = mktree () in
  let node parts =
    let b = Buffer.create 64 in
    List.iter
      (function
        | `U8 v -> Buffer.add_uint8 b v
        | `I v -> Buffer.add_int64_le b (Int64.of_int v))
      parts;
    Buffer.contents b
  in
  let leaf = node [ `U8 0; `I 2; `I 1; `U8 0; `I 5; `I 2; `U8 1; `I 7 ] in
  let read s =
    Devarray.write dev 2 (Blockdev.Data s);
    Btree.reset_cache t;
    Btree.view t 2
  in
  check_bool "a well-formed leaf reads" true
    (read leaf = Btree.Leaf_view [ (1L, Btree.Imm 5L); (2L, Btree.Ptr 7) ]);
  List.iter
    (fun (what, s) ->
      match read s with
      | _ -> Alcotest.failf "%s accepted" what
      | exception Aurora_posix.Serial.Corrupt _ -> ())
    [
      ("bad node tag", node [ `U8 2; `I 0 ]);
      ("bad value tag", node [ `U8 0; `I 1; `I 1; `U8 5; `I 5 ]);
      ("negative count", node [ `U8 0; `I (-1) ]);
      ("truncated leaf", String.sub leaf 0 (String.length leaf - 1));
      ("truncated header", "\000\001");
      ("child/key count mismatch", node [ `U8 1; `I 1; `I 5; `I 3; `I 10; `I 11; `I 12 ]);
      ("unsorted leaf keys", node [ `U8 0; `I 2; `I 2; `U8 0; `I 5; `I 1; `U8 0; `I 7 ]);
      ("repeated internal key", node [ `U8 1; `I 2; `I 5; `I 5; `I 3; `I 10; `I 11; `I 12 ]);
    ]

module IM = Map.Make (Int)

type bt_op = B_insert of int * int | B_epoch | B_release of int | B_flush | B_flush_drop

let bt_op_gen =
  let open QCheck.Gen in
  frequency
    [
      (40, map2 (fun k v -> B_insert (k, v)) (int_bound 1_500) (int_bound 1_000));
      (2, return B_epoch);
      (1, map (fun i -> B_release i) small_nat);
      (1, return B_flush);
      (1, return B_flush_drop);
    ]

let show_bt_op = function
  | B_insert (k, v) -> Printf.sprintf "insert %d %d" k v
  | B_epoch -> "epoch"
  | B_release i -> Printf.sprintf "release %d" i
  | B_flush -> "flush"
  | B_flush_drop -> "flush+drop"

(* Random inserts over several epochs with retained and released
   snapshots and cold caches: every live root answers like its model,
   and releasing every root leaves only the test's own value blocks. *)
let prop_btree_multi_epoch_model =
  QCheck.Test.make ~name:"multi-epoch btree agrees with a Map model per root" ~count:40
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_bt_op ops))
       QCheck.Gen.(list_size (int_range 1 800) bt_op_gen))
    (fun ops ->
      let dev, alloc, t = mktree () in
      let pool = Array.init 6 (fun _ -> Alloc.alloc alloc) in
      let epoch = ref 1 in
      Btree.begin_epoch t !epoch;
      let root = ref (Btree.empty_root t) and model = ref IM.empty and snaps = ref [] in
      let flush () = Devarray.await dev (Btree.flush_dirty t) in
      List.iter
        (function
          | B_insert (k, v) ->
            let value =
              if v mod 3 = 0 then begin
                let p = pool.(v mod Array.length pool) in
                Alloc.incref alloc p;
                Btree.Ptr p
              end
              else Btree.Imm (Int64.of_int (v - 500))
            in
            root := Btree.insert t ~root:!root ~key:(Int64.of_int k) value;
            model := IM.add k value !model
          | B_epoch ->
            snaps := (!root, !model) :: !snaps;
            Btree.retain_root t !root;
            incr epoch;
            Btree.begin_epoch t !epoch
          | B_release i ->
            if !snaps <> [] then begin
              let i = i mod List.length !snaps in
              Btree.release_root t (fst (List.nth !snaps i));
              snaps := List.filteri (fun j _ -> j <> i) !snaps
            end
          | B_flush -> flush ()
          | B_flush_drop ->
            flush ();
            Btree.drop_cache t)
        ops;
      let agrees (r, m) =
        let range lo hi =
          Btree.fold_range t ~root:r ~lo:(Int64.of_int lo) ~hi:(Int64.of_int hi) ~init:[]
            ~f:(fun acc k v -> (Int64.to_int k, v) :: acc)
          |> List.rev
        in
        IM.for_all (fun k v -> Btree.find t ~root:r (Int64.of_int k) = Some v) m
        && Btree.find t ~root:r 1_501L = None
        && range 0 1_500 = IM.bindings m
        && range 400 900 = List.filter (fun (k, _) -> k >= 400 && k <= 900) (IM.bindings m)
      in
      let roots = (!root, !model) :: !snaps in
      let ok = List.for_all agrees roots in
      List.iter (fun (r, _) -> Btree.release_root t r) roots;
      ok
      && Alloc.live_blocks alloc = Array.length pool
      && Array.for_all (fun p -> Alloc.refcount alloc p = 1) pool)

(* Cached nodes share the device's bytes: a flushed tree keeps little
   beyond the device's own copy of each node. *)
let test_btree_retention () =
  let dev, _, t = mktree () in
  Btree.begin_epoch t 1;
  let n = 200_000 in
  let root = ref (Btree.empty_root t) in
  for i = 0 to n - 1 do
    root := Btree.insert t ~root:!root ~key:(Int64.of_int i) (Btree.Imm (Int64.of_int i))
  done;
  Devarray.await dev (Btree.flush_dirty t);
  let words = Obj.reachable_words (Obj.repr t) - Obj.reachable_words (Obj.repr dev) in
  let per_key = float_of_int words /. float_of_int n in
  if per_key > 3.0 then
    Alcotest.failf "%.1f words per key retained beyond the device, bound 3" per_key

(* ------------------------------------------------------------------ *)
(* Store: generations                                                  *)
(* ------------------------------------------------------------------ *)

let test_store_record_roundtrip () =
  let _, dev = mkdev () in
  let s = Store.format ~dev () in
  let g = Store.begin_generation s () in
  Store.put_record s ~oid:7 "metadata for object seven";
  Store.put_record s ~oid:9 (String.make 10_000 'x'); (* multi-chunk *)
  let g', durable = Store.commit s () in
  check_int "same generation" g g';
  Store.wait_durable s durable;
  Alcotest.(check (option string)) "small record" (Some "metadata for object seven")
    (Store.read_record s g ~oid:7);
  (match Store.read_record s g ~oid:9 with
   | Some data -> check_int "multi-chunk length" 10_000 (String.length data)
   | None -> Alcotest.fail "large record lost");
  Alcotest.(check (option string)) "absent oid" None (Store.read_record s g ~oid:99);
  Alcotest.(check (list int)) "oids listed" [ 7; 9 ] (Store.oids s g)

let test_store_record_shrink () =
  let _, dev = mkdev () in
  let s = Store.format ~dev () in
  let g1 = Store.begin_generation s () in
  Store.put_record s ~oid:1 (String.make 9_000 'a');
  ignore (Store.commit s ());
  let g2 = Store.begin_generation s () in
  Store.put_record s ~oid:1 "tiny";
  ignore (Store.commit s ());
  Alcotest.(check (option string)) "shrunk readback" (Some "tiny")
    (Store.read_record s g2 ~oid:1);
  (match Store.read_record s g1 ~oid:1 with
   | Some d -> check_int "old gen intact" 9_000 (String.length d)
   | None -> Alcotest.fail "old generation lost record")

let test_store_pages_and_incremental () =
  let _, dev = mkdev () in
  let s = Store.format ~dev () in
  let g1 = Store.begin_generation s () in
  for i = 0 to 99 do
    Store.put_page s ~oid:1 ~pindex:i ~seed:(Int64.of_int (1000 + i))
  done;
  ignore (Store.commit s ());
  let blocks_full = (Store.stats s).Store.live_blocks in
  (* Incremental: only 5 pages change. *)
  let g2 = Store.begin_generation s () in
  for i = 0 to 4 do
    Store.put_page s ~oid:1 ~pindex:i ~seed:(Int64.of_int (2000 + i))
  done;
  ignore (Store.commit s ());
  let blocks_incr = (Store.stats s).Store.live_blocks in
  (* The increment costs far fewer blocks than the full image. *)
  check_bool "incremental is small" true (blocks_incr - blocks_full < 20);
  (* Both generations read correctly. *)
  (match Store.read_page s g1 ~oid:1 ~pindex:2 with
   | Some seed -> check_bool "old page" true (Int64.equal seed 1002L)
   | None -> Alcotest.fail "g1 page lost");
  (match Store.read_page s g2 ~oid:1 ~pindex:2 with
   | Some seed -> check_bool "new page" true (Int64.equal seed 2002L)
   | None -> Alcotest.fail "g2 page lost");
  (match Store.read_page s g2 ~oid:1 ~pindex:50 with
   | Some seed -> check_bool "inherited page" true (Int64.equal seed 1050L)
   | None -> Alcotest.fail "inherited page lost");
  check_int "page count g2" 100 (Store.page_count s g2 ~oid:1)

let test_store_dedup () =
  let _, dev = mkdev () in
  let s = Store.format ~dev () in
  let g = Store.begin_generation s () in
  (* 50 distinct oids all storing identical page content. *)
  for oid = 1 to 50 do
    Store.put_page s ~oid ~pindex:0 ~seed:42L
  done;
  ignore (Store.commit s ());
  ignore g;
  let st = Store.stats s in
  check_int "one content entry" 1 st.Store.dedup_entries;
  check_int "49 dedup hits" 49 st.Store.dedup_hits;
  (* Store-wide: a later generation hits the same content. *)
  ignore (Store.begin_generation s ());
  Store.put_page s ~oid:99 ~pindex:7 ~seed:42L;
  ignore (Store.commit s ());
  check_int "cross-generation hit" 50 (Store.stats s).Store.dedup_hits

let test_store_gc_in_place () =
  let _, dev = mkdev () in
  let s = Store.format ~dev () in
  let gens =
    List.init 5 (fun round ->
        let g = Store.begin_generation s () in
        for i = 0 to 49 do
          Store.put_page s ~oid:1 ~pindex:i ~seed:(Int64.of_int ((round * 1000) + i))
        done;
        ignore (Store.commit s ());
        g)
  in
  let keep = [ List.nth gens 4 ] in
  let freed = Store.gc s ~keep in
  check_bool "freed blocks in place" true (freed > 0);
  Alcotest.(check (list int)) "only kept generation remains" keep (Store.generations s);
  (* The survivor is fully readable. *)
  for i = 0 to 49 do
    match Store.read_page s (List.nth gens 4) ~oid:1 ~pindex:i with
    | Some seed -> check_bool "survivor intact" true (Int64.equal seed (Int64.of_int (4000 + i)))
    | None -> Alcotest.failf "survivor lost page %d" i
  done

let test_store_gc_all_then_reuse () =
  let _, dev = mkdev () in
  let s = Store.format ~dev () in
  ignore (Store.begin_generation s ());
  for i = 0 to 199 do
    Store.put_page s ~oid:1 ~pindex:i ~seed:(Int64.of_int i)
  done;
  ignore (Store.commit s ());
  let live_before = (Store.stats s).Store.live_blocks in
  ignore (Store.gc s ~keep:[]);
  let live_after = (Store.stats s).Store.live_blocks in
  check_bool "near-empty after full gc" true (live_after < live_before / 10);
  (* The store keeps working after a full GC. *)
  let g = Store.begin_generation s () in
  Store.put_record s ~oid:3 "fresh start";
  ignore (Store.commit s ());
  Alcotest.(check (option string)) "reusable" (Some "fresh start")
    (Store.read_record s g ~oid:3)

let test_store_named_checkpoints () =
  let _, dev = mkdev () in
  let s = Store.format ~dev () in
  ignore (Store.begin_generation s ());
  Store.put_record s ~oid:1 "v1";
  let g1, _ = Store.commit s ~name:"before-upgrade" () in
  ignore (Store.begin_generation s ());
  Store.put_record s ~oid:1 "v2";
  ignore (Store.commit s ());
  Alcotest.(check (option int)) "found by name" (Some g1)
    (Store.find_named s "before-upgrade");
  Alcotest.(check (option string)) "named content" (Some "v1")
    (Store.read_record s g1 ~oid:1)

(* ------------------------------------------------------------------ *)
(* Store: crash recovery                                               *)
(* ------------------------------------------------------------------ *)

let test_store_recovery_roundtrip () =
  let _, dev = mkdev () in
  let s = Store.format ~dev () in
  let g1 = Store.begin_generation s () in
  Store.put_record s ~oid:5 "object five";
  for i = 0 to 30 do
    Store.put_page s ~oid:5 ~pindex:i ~seed:(Int64.of_int (500 + i))
  done;
  let _, durable = Store.commit s ~name:"snap" () in
  Store.wait_durable s durable;
  Devarray.crash dev;
  let s' = Store.open_exn ~dev in
  Alcotest.(check (list int)) "generation survived" [ g1 ] (Store.generations s');
  Alcotest.(check (option int)) "name survived" (Some g1) (Store.find_named s' "snap");
  Alcotest.(check (option string)) "record survived" (Some "object five")
    (Store.read_record s' g1 ~oid:5);
  (match Store.read_page s' g1 ~oid:5 ~pindex:30 with
   | Some seed -> check_bool "page survived" true (Int64.equal seed 530L)
   | None -> Alcotest.fail "page lost in recovery");
  (* Refcounts rebuilt: a new commit + gc still works. *)
  ignore (Store.begin_generation s' ());
  Store.put_record s' ~oid:6 "six";
  let g2, d2 = Store.commit s' () in
  Store.wait_durable s' d2;
  ignore (Store.gc s' ~keep:[ g2 ]);
  Alcotest.(check (option string)) "post-recovery write" (Some "six")
    (Store.read_record s' g2 ~oid:6)

let test_store_crash_mid_commit_keeps_old () =
  (* A crash before the commit completes must recover the previous
     generation exactly. *)
  let _, dev = mkdev () in
  let s = Store.format ~dev () in
  let g1 = Store.begin_generation s () in
  Store.put_record s ~oid:1 "stable";
  let _, durable = Store.commit s () in
  Store.wait_durable s durable;
  (* Second generation committed but the device never reaches its
     completion time: all its async writes are in flight. *)
  ignore (Store.begin_generation s ());
  Store.put_record s ~oid:1 "torn";
  let _, _not_awaited = Store.commit s () in
  Devarray.crash dev;
  let s' = Store.open_exn ~dev in
  Alcotest.(check (list int)) "old generation recovered" [ g1 ] (Store.generations s');
  Alcotest.(check (option string)) "old content" (Some "stable")
    (Store.read_record s' g1 ~oid:1)

let test_store_striped_torn_commit_keeps_old () =
  (* Four independent queues: a crash that catches only some stripes
     durable must still recover the previous generation, because the
     superblock is ordered behind the commit barrier (max of all
     per-device completion times). *)
  let clock, dev = mkdev ~stripes:4 () in
  let s = Store.format ~dev () in
  let g1 = Store.begin_generation s () in
  for i = 0 to 63 do
    Store.put_page s ~oid:1 ~pindex:i ~seed:(Int64.of_int (100 + i))
  done;
  let _, durable1 = Store.commit s () in
  Store.wait_durable s durable1;
  ignore (Store.begin_generation s ());
  for i = 0 to 63 do
    Store.put_page s ~oid:1 ~pindex:i ~seed:(Int64.of_int (200 + i))
  done;
  let _, durable2 = Store.commit s () in
  (* Just before the barrier-ordered superblock lands: the stripes
     holding only data have drained, the superblock's has not. *)
  Clock.advance_to clock (Duration.sub durable2 (Duration.nanoseconds 1));
  Devarray.crash dev;
  let s' = Store.open_exn ~dev in
  Alcotest.(check (list int)) "previous generation recovered" [ g1 ]
    (Store.generations s');
  for i = 0 to 63 do
    match Store.read_page s' g1 ~oid:1 ~pindex:i with
    | Some seed ->
      check_bool "old page intact" true (Int64.equal seed (Int64.of_int (100 + i)))
    | None -> Alcotest.failf "g1 lost page %d" i
  done;
  expect_clean_fsck "fsck after torn striped commit" s'

let test_store_striped_commit_durable_at_barrier () =
  (* The flip side: at exactly durable_at the whole generation is
     recoverable. *)
  let clock, dev = mkdev ~stripes:4 () in
  let s = Store.format ~dev () in
  ignore (Store.begin_generation s ());
  for i = 0 to 63 do
    Store.put_page s ~oid:1 ~pindex:i ~seed:(Int64.of_int (300 + i))
  done;
  let g2, durable = Store.commit s () in
  Clock.advance_to clock durable;
  Devarray.crash dev;
  let s' = Store.open_exn ~dev in
  Alcotest.(check (list int)) "new generation durable" [ g2 ] (Store.generations s');
  for i = 0 to 63 do
    match Store.read_page s' g2 ~oid:1 ~pindex:i with
    | Some seed ->
      check_bool "new page durable" true (Int64.equal seed (Int64.of_int (300 + i)))
    | None -> Alcotest.failf "g2 lost page %d" i
  done

let test_store_dedup_rebuilt_after_recovery () =
  let _, dev = mkdev () in
  let s = Store.format ~dev () in
  ignore (Store.begin_generation s ());
  Store.put_page s ~oid:1 ~pindex:0 ~seed:7L;
  let _, durable = Store.commit s () in
  Store.wait_durable s durable;
  let s' = Store.open_exn ~dev in
  ignore (Store.begin_generation s' ());
  Store.put_page s' ~oid:2 ~pindex:0 ~seed:7L;
  ignore (Store.commit s' ());
  check_bool "dedup hit after recovery" true ((Store.stats s').Store.dedup_hits >= 1)

let test_store_volatile_cache_commit_flushes () =
  (* On NAND (volatile cache) the commit path flushes synchronously:
     after commit returns, a crash must not lose the generation. *)
  let _, dev = mkdev ~profile:Profile.nand_ssd () in
  let s = Store.format ~dev () in
  let g = Store.begin_generation s () in
  Store.put_record s ~oid:1 "durable on nand";
  ignore (Store.commit s ());
  Devarray.crash dev;
  let s' = Store.open_exn ~dev in
  Alcotest.(check (option string)) "survived" (Some "durable on nand")
    (Store.read_record s' g ~oid:1)

let test_store_cold_read_charges_device () =
  let clock, dev = mkdev () in
  let s = Store.format ~dev () in
  let g = Store.begin_generation s () in
  for i = 0 to 200 do
    Store.put_page s ~oid:1 ~pindex:i ~seed:(Int64.of_int i)
  done;
  Store.put_record s ~oid:1 "meta";
  let _, durable = Store.commit s () in
  Store.wait_durable s durable;
  Store.drop_caches s;
  Devarray.reset_stats dev;
  let before = Clock.now clock in
  ignore (Store.read_record s g ~oid:1);
  ignore (Store.read_page s g ~oid:1 ~pindex:100);
  let elapsed = Duration.sub (Clock.now clock) before in
  check_bool "cold reads hit device" true ((Devarray.stats dev).Blockdev.reads > 0);
  check_bool "cold reads cost time" true
    Duration.(elapsed >= Profile.optane_900p.Profile.read_latency)

let prop_store_generations_independent =
  QCheck.Test.make ~name:"every generation reads back its own version" ~count:25
    QCheck.(list_of_size Gen.(int_range 1 6) (list_of_size Gen.(int_range 1 30) (pair (int_bound 40) small_int)))
    (fun rounds ->
      let _, dev = mkdev () in
      let s = Store.format ~dev () in
      let model = Hashtbl.create 64 in
      let committed =
        List.map
          (fun writes ->
            let g = Store.begin_generation s () in
            List.iter
              (fun (pindex, v) ->
                Hashtbl.replace model (g, pindex) (Int64.of_int v);
                Store.put_page s ~oid:1 ~pindex ~seed:(Int64.of_int v))
              writes;
            ignore (Store.commit s ());
            g)
          rounds
      in
      (* Later generations inherit earlier pages unless overwritten. *)
      let expected g pindex =
        let rec search gen =
          if gen < 1 then None
          else if not (List.mem gen committed) then search (gen - 1)
          else
            match Hashtbl.find_opt model (gen, pindex) with
            | Some v -> Some v
            | None -> search (gen - 1)
        in
        search g
      in
      List.for_all
        (fun g ->
          List.for_all
            (fun pindex -> Store.read_page s g ~oid:1 ~pindex = expected g pindex)
            (List.init 41 Fun.id))
        committed)


(* ------------------------------------------------------------------ *)
(* fsck + property over random store histories                         *)
(* ------------------------------------------------------------------ *)

let test_fsck_clean_store () =
  let _, dev = mkdev () in
  let s = Store.format ~dev () in
  ignore (Store.begin_generation s ());
  Store.put_record s ~oid:1 "record";
  for i = 0 to 50 do
    Store.put_page s ~oid:1 ~pindex:i ~seed:(Int64.of_int i)
  done;
  let _, d = Store.commit s () in
  Store.wait_durable s d;
  expect_clean_fsck "fsck" s

(* A committed tree node that no longer decodes is reported as a
   problem, not raised, even without scrub or protection. *)
let test_fsck_reports_rotted_leaf () =
  let _, dev = mkdev () in
  let s = Store.format ~dev () in
  ignore (Store.begin_generation s ());
  Store.put_record s ~oid:1 "record";
  Store.put_page s ~oid:1 ~pindex:0 ~seed:4242L;
  let _, d = Store.commit s () in
  Store.wait_durable s d;
  (* The generation's tree is one leaf: the only block past the
     superblocks whose tag byte is 0. *)
  let is_leaf b =
    match Devarray.peek dev b with
    | Blockdev.Data d -> String.length d > 0 && d.[0] = '\000'
    | Blockdev.Seed _ | Blockdev.Zero -> false
  in
  let leaf =
    match List.filter is_leaf (List.init (Devarray.used_blocks dev + 8) (fun b -> b + 2)) with
    | [ b ] -> b
    | l -> Alcotest.failf "expected one leaf, found %d" (List.length l)
  in
  Devarray.write dev leaf (Blockdev.Data "garbage");
  Store.drop_caches s;
  let r = Store.fsck s in
  check_bool "rotted leaf reported" true (r.Store.problems <> [])

(* A page or blob index must fit the key's 32-bit index field: 2^33
   for oid 1 would otherwise name oid 2's record length. *)
let test_store_index_out_of_range () =
  let _, dev = mkdev () in
  let s = Store.format ~dev () in
  ignore (Store.begin_generation s ());
  Store.put_record s ~oid:2 "two";
  let rejected f = match f () with () -> false | exception Invalid_argument _ -> true in
  check_bool "page index 2^33" true
    (rejected (fun () -> Store.put_page s ~oid:1 ~pindex:(1 lsl 33) ~seed:1L));
  check_bool "page index 2^32" true
    (rejected (fun () -> Store.put_page s ~oid:1 ~pindex:(1 lsl 32) ~seed:1L));
  check_bool "batched page index 2^33" true
    (rejected (fun () -> Store.put_pages s ~oid:1 [| (0, 1L); (1 lsl 33, 2L) |]));
  check_bool "blob index 2^33" true
    (rejected (fun () -> Store.put_blob s ~oid:1 ~index:(1 lsl 33) "blob"));
  Store.put_page s ~oid:1 ~pindex:((1 lsl 32) - 1) ~seed:1L;
  let g, d = Store.commit s () in
  Store.wait_durable s d;
  check_bool "oid 2's record intact" true (Store.read_record s g ~oid:2 = Some "two");
  check_bool "largest page index" true
    (Store.read_page s g ~oid:1 ~pindex:((1 lsl 32) - 1) = Some 1L);
  check_bool "rejected batch left no page" true (Store.read_page s g ~oid:1 ~pindex:0 = None);
  expect_clean_fsck "fsck" s

(* A committed leaf whose keys are no longer ascending would make
   binary search miss entries silently; fsck reports it against its
   generation instead. *)
let test_fsck_reports_unsorted_leaf () =
  let _, dev = mkdev () in
  let s = Store.format ~protection:{ Store.verify = false; mirror = false } ~dev () in
  ignore (Store.begin_generation s ());
  Store.put_record s ~oid:1 "record";
  Store.put_page s ~oid:1 ~pindex:0 ~seed:4242L;
  let g, d = Store.commit s () in
  Store.wait_durable s d;
  let leaves =
    List.filter
      (fun (b, d) -> b >= 2 && String.length d > 0 && d.[0] = '\000')
      (device_nodes dev)
  in
  let leaf, d =
    match leaves with
    | [ l ] -> l
    | l -> Alcotest.failf "expected one leaf, found %d" (List.length l)
  in
  (* Swap the leaf's first two 17-byte entries. *)
  let e i = String.sub d (9 + (17 * i)) 17 in
  let swapped = String.sub d 0 9 ^ e 1 ^ e 0 ^ String.sub d 43 (String.length d - 43) in
  Devarray.write dev leaf (Blockdev.Data swapped);
  Store.drop_caches s;
  let r = Store.fsck s in
  let prefix = Printf.sprintf "generation %d: " g in
  check_bool "unsorted leaf reported against its generation" true
    (List.exists (String.starts_with ~prefix) r.Store.problems)

type store_op =
  | S_commit of (int * int64) list  (* pages for oid 1 *)
  | S_record of string
  | S_gc_keep_last of int
  | S_crash_recover

let store_op_gen =
  let open QCheck.Gen in
  frequency
    [
      (5, map (fun ps -> S_commit ps)
           (list_size (int_range 1 25) (pair (int_bound 40) int64)));
      (2, map (fun s -> S_record s) (string_size ~gen:printable (int_range 0 6000)));
      (2, map (fun n -> S_gc_keep_last (1 + (n mod 4))) small_nat);
      (2, return S_crash_recover);
    ]

let pp_store_op = function
  | S_commit ps -> Printf.sprintf "commit(%d pages)" (List.length ps)
  | S_record s -> Printf.sprintf "record(%d bytes)" (String.length s)
  | S_gc_keep_last n -> Printf.sprintf "gc(keep %d)" n
  | S_crash_recover -> "crash+recover"

let prop_store_history_invariants =
  QCheck.Test.make ~name:"random store histories keep fsck clean and data readable"
    ~count:30
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_store_op ops))
       QCheck.Gen.(list_size (int_range 1 25) store_op_gen))
    (fun ops ->
      let _, dev = mkdev () in
      let store = ref (Store.format ~dev ()) in
      (* The model: for every committed generation, the latest value of
         each page/record at commit time. *)
      let committed : (int, (int * int64) list * string option) Hashtbl.t =
        Hashtbl.create 16
      in
      let cur_pages : (int, int64) Hashtbl.t = Hashtbl.create 16 in
      let cur_record = ref None in
      let ok = ref true in
      let fail_with msg = ok := false; QCheck.Test.fail_report msg in
      List.iter
        (fun op ->
          if !ok then
            match op with
            | S_commit pages ->
              ignore (Store.begin_generation !store ());
              List.iter
                (fun (pindex, seed) ->
                  Hashtbl.replace cur_pages pindex seed;
                  Store.put_page !store ~oid:1 ~pindex ~seed)
                pages;
              let g, d = Store.commit !store () in
              Store.wait_durable !store d;
              Hashtbl.replace committed g
                ( Hashtbl.fold (fun k v acc -> (k, v) :: acc) cur_pages [],
                  !cur_record )
            | S_record data ->
              ignore (Store.begin_generation !store ());
              cur_record := Some data;
              Store.put_record !store ~oid:7 data;
              let g, d = Store.commit !store () in
              Store.wait_durable !store d;
              Hashtbl.replace committed g
                ( Hashtbl.fold (fun k v acc -> (k, v) :: acc) cur_pages [],
                  !cur_record )
            | S_gc_keep_last n ->
              let gens = Store.generations !store in
              let keep =
                List.filteri (fun i _ -> i >= List.length gens - n) gens
              in
              ignore (Store.gc !store ~keep);
              Hashtbl.iter
                (fun g _ -> if not (List.mem g keep) then Hashtbl.remove committed g)
                (Hashtbl.copy committed)
            | S_crash_recover ->
              Devarray.crash dev;
              store := Store.open_exn ~dev)
        ops;
      if !ok then begin
        (let r = Store.fsck !store in
         if not (Store.fsck_ok r) then
           fail_with ("fsck: " ^ String.concat "; " (fsck_problems r)));
        (* Every surviving generation reads back its model state. *)
        Hashtbl.iter
          (fun g (pages, record) ->
            if List.mem g (Store.generations !store) then begin
              List.iter
                (fun (pindex, seed) ->
                  if Store.read_page !store g ~oid:1 ~pindex <> Some seed then
                    fail_with
                      (Printf.sprintf "gen %d page %d diverged" g pindex))
                pages;
              match record with
              | Some data ->
                if Store.read_record !store g ~oid:7 <> Some data then
                  fail_with (Printf.sprintf "gen %d record diverged" g)
              | None -> ()
            end)
          committed
      end;
      !ok)

(* ------------------------------------------------------------------ *)
(* Media faults and self-healing                                       *)
(* ------------------------------------------------------------------ *)

(* Locate the physical home of a distinctive payload by inspecting the
   device under the store (ascending allocation puts the primary copy
   before its mirror). *)
let find_block dev ~seed =
  let n = Devarray.used_blocks dev in
  let rec go b =
    if b >= n then Alcotest.failf "seed %Ld not found on device" seed
    else if Devarray.peek dev b = Blockdev.Seed seed then b
    else go (b + 1)
  in
  go 2

let test_store_open_empty_device () =
  let _, dev = mkdev () in
  (match Store.open_ ~dev with
   | Error Store.No_superblock -> ()
   | Error e -> Alcotest.failf "wrong error: %s" (Store.describe_error e)
   | Ok _ -> Alcotest.fail "opened a device that was never formatted")

let test_store_out_of_space_degrades () =
  let clock = Clock.create () in
  let dev =
    Devarray.create ~capacity_blocks:48 ~clock ~profile:Profile.optane_900p "tiny"
  in
  let s = Store.format ~dev () in
  let g1 = Store.begin_generation s () in
  Store.put_record s ~oid:1 "keep me";
  Store.put_page s ~oid:1 ~pindex:0 ~seed:42L;
  let _, d = Store.commit s () in
  Store.wait_durable s d;
  (* A generation too big for the device must fail *typed* and leave
     the store serving its last good checkpoint. *)
  ignore (Store.begin_generation s ());
  (match
     (for i = 0 to 199 do
        Store.put_page s ~oid:2 ~pindex:i ~seed:(Int64.of_int (1000 + i))
      done;
      Store.commit_result s ())
   with
   | Ok _ -> Alcotest.fail "oversized generation committed"
   | Error Store.Out_of_space -> ()
   | Error e -> Alcotest.failf "wrong error: %s" (Store.describe_error e)
   | exception Alloc.Out_of_space -> Store.abort_generation s);
  Alcotest.(check (list int)) "old generation intact" [ g1 ] (Store.generations s);
  Alcotest.(check (option string)) "still serving" (Some "keep me")
    (Store.read_record s g1 ~oid:1);
  (* The aborted generation's blocks were reclaimed: a small commit
     fits again. *)
  ignore (Store.begin_generation s ());
  Store.put_record s ~oid:3 "after the squeeze";
  let g3, d3 = Store.commit s () in
  Store.wait_durable s d3;
  Alcotest.(check (option string)) "space recovered" (Some "after the squeeze")
    (Store.read_record s g3 ~oid:3);
  expect_clean_fsck "fsck after out-of-space" s

let full_protection = { Store.verify = true; mirror = true }

let test_store_corruption_healed_from_mirror () =
  let _, dev = mkdev () in
  let s = Store.format ~protection:full_protection ~dev () in
  ignore (Store.begin_generation s ());
  let g, d =
    Store.put_page s ~oid:1 ~pindex:0 ~seed:777_777L;
    Store.put_page s ~oid:1 ~pindex:1 ~seed:888_888L;
    Store.commit s ()
  in
  Store.wait_durable s d;
  (* Bit rot on the primary copy, behind the store's back. *)
  let victim = find_block dev ~seed:777_777L in
  Devarray.write dev victim (Blockdev.Seed 666L);
  Alcotest.(check (option int64)) "read heals through the mirror"
    (Some 777_777L)
    (Store.read_page s g ~oid:1 ~pindex:0);
  let io = Store.io_stats s in
  check_bool "mismatch detected" true (io.Store.checksum_failures >= 1);
  check_bool "healed from mirror" true (io.Store.repaired_from_mirror >= 1);
  check_int "nothing lost" 0 io.Store.lost_blocks;
  (* The heal rewrote the primary in place. *)
  check_bool "primary repaired on device" true
    (Devarray.peek dev victim = Blockdev.Seed 777_777L)

let test_store_latent_healed_by_scrub () =
  let _, dev = mkdev () in
  let s = Store.format ~protection:full_protection ~dev () in
  ignore (Store.begin_generation s ());
  Store.put_page s ~oid:1 ~pindex:0 ~seed:123_123L;
  Store.put_record s ~oid:1 "metadata";
  let g, d = Store.commit s () in
  Store.wait_durable s d;
  let victim = find_block dev ~seed:123_123L in
  Devarray.inject_latent dev victim;
  let r = Store.fsck ~scrub:true s in
  check_bool "scrub is clean after healing" true (Store.fsck_ok r);
  check_bool "the latent block was healed" true
    (List.exists (fun (b, _) -> b = victim) r.Store.healed);
  check_bool "scrub read the store" true (r.Store.scanned_blocks > 0);
  (* Healing rewrote the sector, clearing the latent error for good. *)
  Alcotest.(check (option int64)) "page readable after scrub" (Some 123_123L)
    (Store.read_page s g ~oid:1 ~pindex:0);
  Alcotest.(check (option string)) "record survived" (Some "metadata")
    (Store.read_record s g ~oid:1)

(* The table chunks (primary copy, then mirror) the newest superblock
   names, with its sequence number. *)
let newest_table_chunks dev =
  let decode slot =
    match Devarray.peek dev slot with
    | Blockdev.Data s -> (
      let module S = Aurora_posix.Serial in
      let r = S.reader (S.r_string (S.reader s)) in
      ignore (S.r_string r);
      let seq = S.r_int r in
      ignore (S.r_int r);
      let depth = S.r_int r in
      check_int "table listed inline" 0 depth;
      let table = S.r_list r S.r_int in
      ignore (S.r_u8 r);
      ignore (S.r_u8 r);
      let mirror = S.r_list r S.r_int in
      Some (seq, table @ mirror))
    | Blockdev.Seed _ | Blockdev.Zero -> None
  in
  match List.filter_map decode [ 0; 1 ] with
  | [] -> Alcotest.fail "no superblock"
  | sbs -> List.fold_left (fun a b -> if fst b > fst a then b else a) (List.hd sbs) (List.tl sbs)

(* The generation table is an on-disk format: a fixed history on a
   protected store — commits, names, a collection and an aborted
   commit — must write exactly these table chunks to exactly these
   blocks, superblock after superblock. *)
let test_store_golden_gentable () =
  let _, dev = mkdev () in
  let s = Store.format ~protection:full_protection ~dev () in
  let buf = Buffer.create 4096 in
  let last_seq = ref (-1) in
  let note () =
    let seq, chunks = newest_table_chunks dev in
    if seq <> !last_seq then begin
      last_seq := seq;
      List.iter
        (fun b ->
          match Devarray.peek dev b with
          | Blockdev.Data c -> Buffer.add_string buf (Printf.sprintf "%d:%s;" b c)
          | Blockdev.Seed _ | Blockdev.Zero -> Alcotest.failf "table chunk %d is not data" b)
        chunks
    end
  in
  let commit ?name pages =
    ignore (Store.begin_generation s ());
    List.iter
      (fun (oid, i) -> Store.put_page s ~oid ~pindex:i ~seed:(Int64.of_int ((oid * 1000) + i)))
      pages;
    Store.put_record s ~oid:9 (String.make (100 * List.length pages) 'r');
    let g, _ = Store.commit s ?name () in
    note ();
    g
  in
  let g1 = commit (List.init 40 (fun i -> (1, i))) in
  ignore (commit ~name:"second" (List.init 30 (fun i -> (2, i))));
  Store.name_generation s g1 "first";
  note ();
  let g3 = commit (List.init 50 (fun i -> (1, i + 20))) in
  ignore (Store.begin_generation s ());
  Store.put_page s ~oid:3 ~pindex:0 ~seed:77L;
  Store.abort_generation s;
  let g4 = commit (List.init 10 (fun i -> (3, i))) in
  ignore (Store.gc s ~keep:[ g1; g3; g4 ]);
  note ();
  Store.wait_all_durable s;
  let g5 = commit ~name:"fifth" (List.init 25 (fun i -> (2, i * 3))) in
  Alcotest.(check (list int)) "history" [ g1; g3; g4; g5 ] (Store.generations s);
  (* Recorded with the three-table implementation this one replaced. *)
  Alcotest.(check string) "table chunks digest" "2b6571c38b05f1594be554c95f3e96d6"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* Quarantine drops a generation's whole record: a generation lost to
   an unreadable leaf is gone from the generation list, the provenance
   and the durability instants alike. *)
let test_store_quarantine_drops_record () =
  let _, dev = mkdev () in
  let s = Store.format ~dev () in
  let leaves () =
    List.filter
      (fun b ->
        match Devarray.peek dev b with
        | Blockdev.Data d -> String.length d > 0 && d.[0] = '\000'
        | Blockdev.Seed _ | Blockdev.Zero -> false)
      (List.init (Devarray.used_blocks dev + 8) (fun b -> b + 4))
  in
  ignore (Store.begin_generation s ());
  Store.put_record s ~oid:1 "survivor";
  let g1, d1 = Store.commit s () in
  Store.wait_durable s d1;
  let before = leaves () in
  ignore (Store.begin_generation s ());
  Store.put_record s ~oid:2 "casualty";
  let g2, d2 = Store.commit s () in
  Store.wait_durable s d2;
  let victim =
    match List.filter (fun b -> not (List.mem b before)) (leaves ()) with
    | [ b ] -> b
    | l -> Alcotest.failf "expected one new leaf, found %d" (List.length l)
  in
  check_bool "durability known before the loss" true (Store.gen_durable_at s g2 <> None);
  Devarray.inject_latent dev victim;
  ignore (Store.begin_generation s ());
  Store.abort_generation s;
  Alcotest.(check (list int)) "quarantined generation dropped" [ g1 ] (Store.generations s);
  check_bool "its provenance went with it" true (Store.gen_provenance s g2 = None);
  check_bool "its durability instant went with it" true (Store.gen_durable_at s g2 = None);
  check_bool "the survivor keeps its record" true (Store.gen_durable_at s g1 <> None)

(* A retired generation leaves the table at once, but the superblock
   on disk still names it until the next one lands: a rollback in
   between must not hand its blocks out again, and a crash recovers it
   whole. *)
let test_store_retire_rides_next_superblock () =
  let _, dev = mkdev () in
  let s = Store.format ~dedup:false ~dev () in
  let commit ~oid seed n =
    ignore (Store.begin_generation s ());
    for i = 0 to n - 1 do
      Store.put_page s ~oid ~pindex:i ~seed:(Int64.of_int (seed + i))
    done;
    fst (Store.commit s ())
  in
  let g1 = commit ~oid:1 1000 32 in
  let g2 = commit ~oid:1 2000 32 in
  Store.wait_all_durable s;
  let seeds = List.init 32 (fun i -> Int64.of_int (1000 + i)) in
  let blocks = List.map (fun seed -> find_block dev ~seed) seeds in
  Store.retire s g1;
  Alcotest.(check (list int)) "retired from the table" [ g2 ] (Store.generations s);
  ignore (Store.begin_generation s ());
  Store.put_page s ~oid:2 ~pindex:0 ~seed:1L;
  Store.abort_generation s;
  ignore (commit ~oid:3 3000 64);
  check_bool "retired blocks not reused" true
    (List.for_all2 (fun b seed -> Devarray.peek dev b = Blockdev.Seed seed) blocks seeds);
  Devarray.crash dev;
  let s' = Store.open_exn ~dev in
  Alcotest.(check (list int)) "the durable table still names it" [ g1; g2 ] (Store.generations s');
  Alcotest.(check (list (pair int int64))) "retired generation whole"
    (List.mapi (fun i seed -> (i, seed)) seeds)
    (Array.to_list (Store.read_pages_batch s' g1 ~oid:1 ~pindexes:(Array.init 32 Fun.id)))

let test_store_unrecoverable_loss_drops_generation () =
  let _, dev = mkdev () in
  (* Checksums but no mirror and no dedup: nothing to repair from. *)
  let s =
    Store.format ~dedup:false
      ~protection:{ Store.verify = true; mirror = false }
      ~dev ()
  in
  ignore (Store.begin_generation s ());
  Store.put_record s ~oid:1 "gen one survives";
  Store.put_page s ~oid:1 ~pindex:0 ~seed:111L;
  let g1, d1 = Store.commit s () in
  Store.wait_durable s d1;
  ignore (Store.begin_generation s ());
  Store.put_page s ~oid:2 ~pindex:0 ~seed:222_222L;
  let g2, d2 = Store.commit s () in
  Store.wait_durable s d2;
  let victim = find_block dev ~seed:222_222L in
  Devarray.inject_latent dev victim;
  let r = Store.fsck ~scrub:true s in
  check_bool "loss reported" true (not (Store.fsck_ok r));
  check_bool "the broken generation is the one quarantined" true
    (List.exists (fun (g, _) -> g = g2) r.Store.lost);
  Alcotest.(check (list int)) "store dropped it cleanly" [ g1 ]
    (Store.generations s);
  Alcotest.(check (option string)) "older generation still whole"
    (Some "gen one survives")
    (Store.read_record s g1 ~oid:1);
  (* With the casualty quarantined, the store is consistent again. *)
  expect_clean_fsck "fsck after quarantine" s

let test_store_transient_reads_retry () =
  let clock = Clock.create () in
  let dev =
    Devarray.create
      ~faults:(Fault.plan ~seed:11L ~transient_read:0.2 ())
      ~clock ~profile:Profile.optane_900p "flaky"
  in
  let s = Store.format ~dev () in
  check_bool "protection auto-enabled under faults" true
    (let p = Store.protection s in
     p.Store.verify && p.Store.mirror);
  ignore (Store.begin_generation s ());
  for i = 0 to 63 do
    Store.put_page s ~oid:1 ~pindex:i ~seed:(Int64.of_int (5000 + i))
  done;
  let g, d = Store.commit s () in
  Store.wait_durable s d;
  Store.drop_caches s;
  for i = 0 to 63 do
    Alcotest.(check (option int64))
      (Printf.sprintf "page %d correct despite transient errors" i)
      (Some (Int64.of_int (5000 + i)))
      (Store.read_page s g ~oid:1 ~pindex:i)
  done;
  let io = Store.io_stats s in
  check_bool "retries were needed and charged" true (io.Store.read_retries > 0);
  check_int "no data lost" 0 io.Store.lost_blocks

let test_store_fault_storm_crash_recover_bitexact () =
  (* The ISSUE acceptance scenario: 1e-3 transient reads, at least one
     latent sector per generation, then power failure. Reopen + scrub
     must hand back every committed generation bit-exact. *)
  let clock = Clock.create () in
  let dev =
    Devarray.create ~stripes:2
      ~faults:(Fault.plan ~seed:2024L ~transient_read:1e-3 ())
      ~clock ~profile:Profile.optane_900p "nvme"
  in
  let s = Store.format ~dev () in
  let model = Hashtbl.create 8 in
  for gnum = 0 to 5 do
    ignore (Store.begin_generation s ());
    let pages =
      List.init 64 (fun i -> (i, Int64.of_int ((gnum * 1000) + i)))
    in
    List.iter (fun (i, seed) -> Store.put_page s ~oid:1 ~pindex:i ~seed) pages;
    Store.put_record s ~oid:7 (Printf.sprintf "generation %d manifest" gnum);
    let g, d = Store.commit s () in
    Store.wait_durable s d;
    Hashtbl.replace model g (pages, Printf.sprintf "generation %d manifest" gnum);
    (* >= 1 latent sector per generation, away from the superblocks. *)
    let used = Devarray.used_blocks dev in
    Devarray.inject_latent dev (2 + ((gnum * 17) mod (used - 2)))
  done;
  Devarray.crash dev;
  let s' = Store.open_exn ~dev in
  let r = Store.fsck ~scrub:true s' in
  check_bool "scrub healed everything" true (Store.fsck_ok r);
  Hashtbl.iter
    (fun g (pages, record) ->
      check_bool (Printf.sprintf "generation %d present" g) true
        (List.mem g (Store.generations s'));
      List.iter
        (fun (pindex, seed) ->
          Alcotest.(check (option int64))
            (Printf.sprintf "gen %d page %d bit-exact" g pindex)
            (Some seed)
            (Store.read_page s' g ~oid:1 ~pindex))
        pages;
      Alcotest.(check (option string))
        (Printf.sprintf "gen %d record bit-exact" g)
        (Some record)
        (Store.read_record s' g ~oid:7))
    model;
  check_int "all six generations" 6 (List.length (Store.generations s'))

(* ------------------------------------------------------------------ *)
(* Per-block state                                                     *)
(* ------------------------------------------------------------------ *)

let test_store_freed_block_state () =
  (* A block freed by gc takes its checksum, mirror and dedup entry
     with it: re-putting the same content is a dedup miss that lands
     in a block verifying against its own fresh checksum and mirror. *)
  let _, dev = mkdev () in
  let s = Store.format ~protection:full_protection ~dev () in
  ignore (Store.begin_generation s ());
  Store.put_page s ~oid:1 ~pindex:0 ~seed:4242L;
  Store.put_page s ~oid:1 ~pindex:1 ~seed:5151L;
  let g1, d1 = Store.commit s () in
  Store.wait_durable s d1;
  ignore (Store.begin_generation s ~base:g1 ());
  Store.put_page s ~oid:1 ~pindex:0 ~seed:7L;
  let g2, d2 = Store.commit s () in
  Store.wait_durable s d2;
  ignore (Store.gc s ~keep:[ g2 ]);
  Store.wait_all_durable s;
  let misses = (Store.stats s).Store.dedup_misses in
  ignore (Store.begin_generation s ());
  Store.put_page s ~oid:2 ~pindex:0 ~seed:4242L;
  let g3, d3 = Store.commit s () in
  Store.wait_durable s d3;
  check_int "re-put after free is a dedup miss" (misses + 1)
    (Store.stats s).Store.dedup_misses;
  (match Store.gen_report s g3 with
   | Some r ->
     check_int "one mirror per reachable block"
       (r.Store.r_meta_blocks + r.Store.r_data_blocks) r.Store.r_mirror_blocks
   | None -> Alcotest.fail "g3 missing");
  Store.drop_caches s;
  Alcotest.(check (option int64)) "fresh block reads back" (Some 4242L)
    (Store.read_page s g3 ~oid:2 ~pindex:0);
  check_int "no stale checksum" 0 (Store.io_stats s).Store.checksum_failures;
  (* The fresh mirror is the one repair uses. The device still holds
     the freed copies too, so rot each copy in turn: only rotting the
     live primary needs (and gets) a repair. *)
  let n = Devarray.used_blocks dev in
  List.iter
    (fun b ->
      if Devarray.peek dev b = Blockdev.Seed 4242L then begin
        Devarray.write dev b (Blockdev.Seed 1L);
        Store.drop_caches s;
        Alcotest.(check (option int64)) "read survives a rotted copy" (Some 4242L)
          (Store.read_page s g3 ~oid:2 ~pindex:0);
        Devarray.write dev b (Blockdev.Seed 4242L)
      end)
    (List.init (n + 16) Fun.id);
  check_int "one mirror repair" 1 (Store.io_stats s).Store.repaired_from_mirror;
  check_bool "crosscheck exact" true
    (let x = Store.crosscheck s in
     x.Store.x_reachable_blocks = x.Store.x_live_blocks);
  expect_clean_fsck "fsck after free and re-put" s

let test_store_put_pages_repeated_index () =
  (* A batch may name the same page twice; it applies in order, like
     repeated put_page calls, even when an overwritten page's fresh
     block is named again later in the batch. *)
  let _, dev = mkdev () in
  let s = Store.format ~dev () in
  let g = Store.begin_generation s () in
  Store.put_pages s ~oid:1 [| (3, 10L); (3, 11L); (4, 10L); (5, 11L); (5, 12L) |];
  let _, d = Store.commit s () in
  Store.wait_durable s d;
  List.iter
    (fun (i, seed) ->
      Alcotest.(check (option int64)) (Printf.sprintf "page %d" i) (Some seed)
        (Store.read_page s g ~oid:1 ~pindex:i))
    [ (3, 11L); (4, 10L); (5, 12L) ];
  expect_clean_fsck "fsck after a batch with repeated indexes" s

(* A protected store's generation table carries a checksum (and a
   mirror entry) per block, so its block list outgrows a single
   superblock long before the device fills up. *)
let test_store_large_protected_commit () =
  let _, dev = mkdev () in
  let s = Store.format ~protection:full_protection ~dev () in
  let n = 40_000 in
  ignore (Store.begin_generation s ());
  Store.put_pages s ~oid:1 (Array.init n (fun i -> (i, Int64.of_int (1_000_000 + i))));
  Store.put_record s ~oid:1 "large image";
  let g, d = Store.commit s () in
  Store.wait_durable s d;
  (* A second commit rewrites the table and frees the first copy. *)
  ignore (Store.begin_generation s ());
  Store.put_page s ~oid:1 ~pindex:0 ~seed:9L;
  let g2, d2 = Store.commit s () in
  Store.wait_durable s d2;
  let x = Store.crosscheck s in
  check_int "every live block accounted for" x.Store.x_live_blocks
    x.Store.x_reachable_blocks;
  expect_clean_fsck "fsck before the crash" s;
  Devarray.crash dev;
  let s' = Store.open_exn ~dev in
  Alcotest.(check (list int)) "both generations recovered" [ g; g2 ]
    (Store.generations s');
  let pages = Store.read_pages_batch s' g ~oid:1 ~pindexes:(Array.init n Fun.id) in
  check_int "every page recovered" n (Array.length pages);
  Array.iter
    (fun (i, seed) ->
      if seed <> Int64.of_int (1_000_000 + i) then
        Alcotest.failf "page %d read back %Ld" i seed)
    pages;
  Alcotest.(check (option int64)) "second generation" (Some 9L)
    (Store.read_page s' g2 ~oid:1 ~pindex:0);
  Alcotest.(check (option string)) "record" (Some "large image")
    (Store.read_record s' g ~oid:1);
  expect_clean_fsck "fsck after reopening a large protected store" s';
  (* The reopened store keeps committing. *)
  ignore (Store.begin_generation s' ());
  Store.put_page s' ~oid:1 ~pindex:1 ~seed:10L;
  let _, d3 = Store.commit s' () in
  Store.wait_durable s' d3;
  expect_clean_fsck "fsck after a commit on the reopened store" s'

(* Hand-encode B+tree nodes in the on-disk format (tag byte, then
   Serial lists) to plant a bad pointer under a committed root. *)
let leaf_bytes entries =
  let open Aurora_posix in
  let w = Serial.writer () in
  Serial.w_u8 w 0;
  Serial.w_list w
    (fun w (k, b) ->
      Serial.w_int64 w k;
      Serial.w_u8 w 1;
      Serial.w_int w b)
    entries;
  Serial.contents w

let internal_bytes children =
  let open Aurora_posix in
  let w = Serial.writer () in
  Serial.w_u8 w 1;
  Serial.w_list w Serial.w_int64 [];
  Serial.w_list w Serial.w_int children;
  Serial.contents w

let test_store_bad_pointer_quarantined () =
  let page_key = Int64.add 0x4_0000_0000L 0x2_0000_0000L (* oid 1, page 0 *) in
  let case name ?capacity_blocks plant =
    let clock = Clock.create () in
    let dev = Devarray.create ?capacity_blocks ~clock ~profile:Profile.optane_900p "ptr" in
    let s = Store.format ~dev () in
    ignore (Store.begin_generation s ());
    Store.put_record s ~oid:2 "survivor";
    let g1, d1 = Store.commit s () in
    Store.wait_durable s d1;
    ignore (Store.begin_generation s ~base:g1 ());
    Store.put_page s ~oid:1 ~pindex:0 ~seed:31337L;
    let g2, d2 = Store.commit s () in
    Store.wait_durable s d2;
    (* g2's tree is one leaf: the record's entries plus the page. *)
    let page = find_block dev ~seed:31337L in
    let n = Devarray.used_blocks dev in
    (* Leaf layout: tag byte, entry count, then (key, tag, block)
       entries; the page's entry sorts first. *)
    let entry = String.sub (leaf_bytes [ (page_key, page) ]) 9 17 in
    let holds_ptr b =
      match Devarray.peek dev b with
      | Blockdev.Data d ->
        String.length d >= 26 && d.[0] = '\000' && String.sub d 9 17 = entry
      | Blockdev.Seed _ | Blockdev.Zero -> false
    in
    let root =
      let rec go b =
        if b >= n + 16 then Alcotest.failf "%s: root leaf not found" name
        else if holds_ptr b then b
        else go (b + 1)
      in
      go 4
    in
    Devarray.write dev root (Blockdev.Data (plant page_key));
    Devarray.crash dev;
    match Store.open_ ~dev with
    | Error e -> Alcotest.failf "%s: open failed: %s" name (Store.describe_error e)
    | Ok s' ->
      Alcotest.(check (list int)) (name ^ ": bad generation quarantined") [ g1 ]
        (Store.generations s');
      Alcotest.(check (option string)) (name ^ ": older generation serves")
        (Some "survivor") (Store.read_record s' g1 ~oid:2);
      let r = Store.fsck s' in
      check_bool (name ^ ": loss reported") true
        (List.exists (fun (g, _) -> g = g2) r.Store.lost);
      check_bool (name ^ ": no structural problems") true (r.Store.problems = []);
      (* The store keeps allocating normally afterwards. *)
      ignore (Store.begin_generation s' ());
      Store.put_page s' ~oid:1 ~pindex:0 ~seed:5L;
      let g3, d3 = Store.commit s' () in
      Store.wait_durable s' d3;
      Alcotest.(check (option int64)) (name ^ ": new commit") (Some 5L)
        (Store.read_page s' g3 ~oid:1 ~pindex:0);
      expect_clean_fsck (name ^ ": fsck after new commit") s'
  in
  case "negative data pointer" (fun k -> leaf_bytes [ (k, -5) ]);
  case "reserved data pointer" (fun k -> leaf_bytes [ (k, 1) ]);
  case "data pointer past capacity" ~capacity_blocks:4096 (fun k ->
      leaf_bytes [ (k, 1_000_000) ]);
  case "data pointer past every written block" (fun k -> leaf_bytes [ (k, 1 lsl 40) ]);
  case "negative child" (fun _ -> internal_bytes [ -1 ]);
  case "reserved child" (fun _ -> internal_bytes [ 0 ]);
  case "child past capacity" ~capacity_blocks:4096 (fun _ -> internal_bytes [ 5000 ])

(* ------------------------------------------------------------------ *)
(* Model: random operation sequences under every protection mode       *)
(* ------------------------------------------------------------------ *)

type model_op =
  | M_page of int * int          (* pindex, seed choice *)
  | M_pages of (int * int) list
  | M_blob of int * int          (* index, content choice *)
  | M_record of int              (* length *)
  | M_commit
  | M_abort
  | M_gc of int                  (* keep the newest n *)
  | M_crash

let pp_model_op = function
  | M_page (i, s) -> Printf.sprintf "page(%d,%d)" i s
  | M_pages ps -> Printf.sprintf "pages(%d)" (List.length ps)
  | M_blob (i, c) -> Printf.sprintf "blob(%d,%d)" i c
  | M_record n -> Printf.sprintf "record(%d)" n
  | M_commit -> "commit"
  | M_abort -> "abort"
  | M_gc n -> Printf.sprintf "gc(keep %d)" n
  | M_crash -> "crash+open"

let model_op_gen =
  let open QCheck.Gen in
  frequency
    [
      (4, map2 (fun i s -> M_page (i, s)) (int_bound 15) (int_bound 7));
      (* Distinct page indexes per batch, as the checkpoint flush
         issues them; seeds repeat, so batches carry duplicates. *)
      (2, map (fun ps -> M_pages (List.sort_uniq (fun (a, _) (b, _) -> compare a b) ps))
           (list_size (int_range 1 12) (pair (int_bound 15) (int_bound 7))));
      (2, map2 (fun i c -> M_blob (i, c)) (int_bound 3) (int_bound 3));
      (2, map (fun n -> M_record n) (int_bound 10_000));
      (4, return M_commit);
      (1, return M_abort);
      (2, map (fun n -> M_gc (1 + n)) (int_bound 3));
      (1, return M_crash);
    ]

(* Contents a generation should read back. Record contents are unique
   per put (every chunk carries the put's serial number), so no two
   record chunks ever share a content hash. *)
type model_gen = {
  m_pages : (int * int64) list;
  m_blobs : (int * string) list;
  m_record : (int * int) option; (* serial, length *)
}

let empty_model_gen = { m_pages = []; m_blobs = []; m_record = None }
let model_seed s = Int64.of_int (7_000 + s)
let model_blob c = Printf.sprintf "blob-content-%d" c

let model_record (serial, len) =
  String.init len (fun i ->
      let chunk = i / Blockdev.block_size in
      let tag = Printf.sprintf "<%d/%d>" serial chunk in
      let off = i mod Blockdev.block_size in
      if off < String.length tag then tag.[off] else Char.chr (97 + ((i + serial) mod 26)))

let record_chunks (_, len) = (len + Blockdev.block_size - 1) / Blockdev.block_size

let copy_device (dev : Devarray.t) : Devarray.t =
  Marshal.from_string (Marshal.to_string dev []) 0

let prop_store_model protection =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "store model (verify=%b mirror=%b)" protection.Store.verify
         protection.Store.mirror)
    ~count:25
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_model_op ops))
       QCheck.Gen.(list_size (int_range 1 30) model_op_gen))
    (fun ops ->
      let _, dev = mkdev ~stripes:2 () in
      let store = ref (Store.format ~protection ~dev ()) in
      let committed : (int, model_gen) Hashtbl.t = Hashtbl.create 16 in
      let open_gen = ref None in
      let serial = ref 0 in
      (* Record puts the running store last indexed by content: a
         recovery walk indexes every live data block, while writes
         index only page and blob content. *)
      let indexed = ref [] in
      let reindex () =
        indexed :=
          List.filter_map
            (fun g -> (Hashtbl.find committed g).m_record)
            (Store.generations !store)
      in
      let current () =
        match !open_gen with
        | Some m -> m
        | None ->
          ignore (Store.begin_generation !store ());
          let base =
            match Store.latest !store with
            | Some g -> Hashtbl.find committed g
            | None -> empty_model_gen
          in
          open_gen := Some base;
          base
      in
      let set m = open_gen := Some m in
      let fail fmt = Printf.ksprintf (fun s -> QCheck.Test.fail_report s) fmt in
      let reads_back what s =
        List.iter
          (fun g ->
            match Hashtbl.find_opt committed g with
            | None -> fail "%s: unknown generation %d survived" what g
            | Some m ->
              List.iter
                (fun (i, seed) ->
                  if Store.read_page s g ~oid:1 ~pindex:i <> Some seed then
                    fail "%s: gen %d page %d diverged" what g i)
                m.m_pages;
              if Store.page_count s g ~oid:1 <> List.length m.m_pages then
                fail "%s: gen %d page count" what g;
              List.iter
                (fun (i, data) ->
                  if Store.read_blob s g ~oid:3 ~index:i <> Some data then
                    fail "%s: gen %d blob %d diverged" what g i)
                m.m_blobs;
              if Store.read_record s g ~oid:2 <> Option.map model_record m.m_record
              then fail "%s: gen %d record diverged" what g)
          (Store.generations s)
      in
      let distinct xs = List.length (List.sort_uniq compare xs) in
      let check_all () =
        let s = !store in
        let r = Store.fsck s in
        if not (Store.fsck_ok r) then
          fail "fsck: %s" (String.concat "; " (fsck_problems r));
        let x = Store.crosscheck s in
        if x.Store.x_reachable_blocks <> x.Store.x_live_blocks then
          fail "crosscheck: %d reachable vs %d live" x.Store.x_reachable_blocks
            x.Store.x_live_blocks;
        reads_back "running" s;
        (* A fresh recovery from a copy of the device rebuilds the same
           block table. *)
        Store.wait_all_durable s;
        let fresh = Store.open_exn ~dev:(copy_device dev) in
        reads_back "reopened" fresh;
        if Store.generations fresh <> Store.generations s then
          fail "reopened generations differ";
        let xf = Store.crosscheck fresh in
        if xf.Store.x_reachable_blocks <> xf.Store.x_live_blocks then
          fail "reopened crosscheck: %d reachable vs %d live"
            xf.Store.x_reachable_blocks xf.Store.x_live_blocks;
        List.iter
          (fun g ->
            if Store.gen_report s g <> Store.gen_report fresh g then
              fail "gen %d: running and reopened reports differ" g)
          (Store.generations s);
        (* The running store also holds the generation table named by
           the other superblock slot; a reopened one recovered from a
           single slot. Everything else is the same set of blocks. *)
        let st = Store.stats s and sf = Store.stats fresh in
        if st.Store.live_blocks - sf.Store.live_blocks
           <> x.Store.x_reachable_blocks - xf.Store.x_reachable_blocks
           || st.Store.live_blocks < sf.Store.live_blocks
        then fail "live blocks: running %d, reopened %d" st.Store.live_blocks
            sf.Store.live_blocks;
        let live = List.map (Hashtbl.find committed) (Store.generations s) in
        let seeds = distinct (List.concat_map (fun m -> List.map snd m.m_pages) live) in
        let blobs = distinct (List.concat_map (fun m -> List.map snd m.m_blobs) live) in
        let records = List.sort_uniq compare (List.filter_map (fun m -> m.m_record) live) in
        let chunks rs = List.fold_left (fun n r -> n + record_chunks r) 0 rs in
        let expect_fresh = seeds + blobs + chunks records in
        let expect_running =
          seeds + blobs + chunks (List.filter (fun r -> List.mem r !indexed) records)
        in
        if sf.Store.dedup_entries <> expect_fresh then
          fail "reopened dedup entries %d, expected %d" sf.Store.dedup_entries expect_fresh;
        if st.Store.dedup_entries <> expect_running then
          fail "running dedup entries %d, expected %d" st.Store.dedup_entries
            expect_running
      in
      List.iter
        (fun op ->
          match op with
          | M_page (i, c) ->
            let m = current () in
            Store.put_page !store ~oid:1 ~pindex:i ~seed:(model_seed c);
            set { m with m_pages = (i, model_seed c) :: List.remove_assoc i m.m_pages }
          | M_pages ps ->
            let m = current () in
            let ps = List.map (fun (i, c) -> (i, model_seed c)) ps in
            Store.put_pages !store ~oid:1 (Array.of_list ps);
            set
              { m with
                m_pages =
                  List.fold_left
                    (fun acc (i, seed) -> (i, seed) :: List.remove_assoc i acc)
                    m.m_pages ps }
          | M_blob (i, c) ->
            let m = current () in
            Store.put_blob !store ~oid:3 ~index:i (model_blob c);
            set { m with m_blobs = (i, model_blob c) :: List.remove_assoc i m.m_blobs }
          | M_record len ->
            let m = current () in
            incr serial;
            let r = (!serial, len) in
            Store.put_record !store ~oid:2 (model_record r);
            set { m with m_record = Some r }
          | M_commit ->
            let m = current () in
            let g, d = Store.commit !store () in
            Store.wait_durable !store d;
            Hashtbl.replace committed g m;
            open_gen := None;
            check_all ()
          | M_abort ->
            if !open_gen <> None then begin
              Store.abort_generation !store;
              open_gen := None;
              reindex ()
            end;
            check_all ()
          | M_gc n ->
            if !open_gen = None then begin
              let gens = Store.generations !store in
              let keep = List.filteri (fun i _ -> i >= List.length gens - n) gens in
              ignore (Store.gc !store ~keep)
            end;
            if !open_gen = None then check_all ()
          | M_crash ->
            Devarray.crash dev;
            store := Store.open_exn ~dev;
            open_gen := None;
            reindex ();
            check_all ())
        ops;
      true)

(* ------------------------------------------------------------------ *)
(* Retention                                                           *)
(* ------------------------------------------------------------------ *)

(* Heap words the store itself keeps per stored page once its node
   cache is dropped: the block table, the dedup index and the
   generation bookkeeping, not the device's own block map. *)
let store_words_per_page ~protection n =
  let _, dev = mkdev () in
  let s = Store.format ~protection ~dev () in
  ignore (Store.begin_generation s ());
  Store.put_pages s ~oid:1 (Array.init n (fun i -> (i, Int64.of_int (50_000 + i))));
  let _, d = Store.commit s () in
  Store.wait_durable s d;
  Store.wait_all_durable s;
  Store.drop_caches s;
  let words = Obj.reachable_words (Obj.repr s) - Obj.reachable_words (Obj.repr dev) in
  float_of_int words /. float_of_int n

let test_store_retention () =
  let n = 20_000 in
  List.iter
    (fun (name, protection, bound) ->
      let w = store_words_per_page ~protection n in
      if w > bound then
        Alcotest.failf "%s: %.1f words per page retained, bound %.1f" name w bound)
    [
      (* Measured 17.8 / 25.5 / 35.3 with per-block hash tables. *)
      ("dedup", { Store.verify = false; mirror = false }, 15.0);
      ("verify", { Store.verify = true; mirror = false }, 18.0);
      ("verify+mirror", full_protection, 27.0);
    ]

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "objstore"
    [
      ( "alloc",
        [
          Alcotest.test_case "alloc/free/reuse" `Quick test_alloc_reuse;
          Alcotest.test_case "refcounting" `Quick test_alloc_refcounting;
          Alcotest.test_case "capacity" `Quick test_alloc_capacity;
        ] );
      ( "btree",
        [
          Alcotest.test_case "insert/find at scale" `Quick test_btree_insert_find;
          Alcotest.test_case "replace frees old pointer" `Quick test_btree_replace;
          Alcotest.test_case "snapshot isolation" `Quick test_btree_snapshot_isolation;
          Alcotest.test_case "release frees everything" `Quick test_btree_release_frees_all;
          Alcotest.test_case "release preserves shared snapshot" `Quick
            test_btree_release_preserves_shared;
          Alcotest.test_case "persist + cold reread" `Quick test_btree_persist_and_reread;
          Alcotest.test_case "fold_range" `Quick test_btree_fold_range;
          qt prop_btree_matches_hashtable;
          qt prop_btree_fold_range_matches_model;
          Alcotest.test_case "golden node format" `Quick test_btree_golden_format;
          Alcotest.test_case "committed nodes are immutable" `Quick
            test_btree_committed_nodes_immutable;
          Alcotest.test_case "bad nodes rejected on read" `Quick test_btree_rejects_bad_nodes;
          qt prop_btree_multi_epoch_model;
          Alcotest.test_case "retained words per key" `Quick test_btree_retention;
        ] );
      ( "store",
        [
          Alcotest.test_case "record roundtrip" `Quick test_store_record_roundtrip;
          Alcotest.test_case "record shrink across gens" `Quick test_store_record_shrink;
          Alcotest.test_case "incremental pages" `Quick test_store_pages_and_incremental;
          Alcotest.test_case "content dedup" `Quick test_store_dedup;
          Alcotest.test_case "in-place gc" `Quick test_store_gc_in_place;
          Alcotest.test_case "full gc then reuse" `Quick test_store_gc_all_then_reuse;
          Alcotest.test_case "named checkpoints" `Quick test_store_named_checkpoints;
          Alcotest.test_case "index beyond 32 bits rejected" `Quick test_store_index_out_of_range;
          Alcotest.test_case "golden generation table" `Quick test_store_golden_gentable;
          Alcotest.test_case "retire rides on the next superblock" `Quick
            test_store_retire_rides_next_superblock;
          qt prop_store_generations_independent;
        ] );
      ( "fsck",
        [
          Alcotest.test_case "clean store" `Quick test_fsck_clean_store;
          qt prop_store_history_invariants;
          Alcotest.test_case "rotted leaf is a problem, not an exception" `Quick
            test_fsck_reports_rotted_leaf;
          Alcotest.test_case "unsorted leaf is a generation problem" `Quick
            test_fsck_reports_unsorted_leaf;
        ] );
      ( "crash-recovery",
        [
          Alcotest.test_case "recovery roundtrip" `Quick test_store_recovery_roundtrip;
          Alcotest.test_case "torn commit keeps old generation" `Quick
            test_store_crash_mid_commit_keeps_old;
          Alcotest.test_case "striped torn commit keeps old generation" `Quick
            test_store_striped_torn_commit_keeps_old;
          Alcotest.test_case "striped commit durable at barrier" `Quick
            test_store_striped_commit_durable_at_barrier;
          Alcotest.test_case "dedup rebuilt" `Quick test_store_dedup_rebuilt_after_recovery;
          Alcotest.test_case "volatile cache flushes synchronously" `Quick
            test_store_volatile_cache_commit_flushes;
          Alcotest.test_case "cold reads charge the device" `Quick
            test_store_cold_read_charges_device;
        ] );
      ( "self-healing",
        [
          Alcotest.test_case "open empty device is typed" `Quick
            test_store_open_empty_device;
          Alcotest.test_case "out of space degrades, not crashes" `Quick
            test_store_out_of_space_degrades;
          Alcotest.test_case "corruption healed from mirror" `Quick
            test_store_corruption_healed_from_mirror;
          Alcotest.test_case "latent sector healed by scrub" `Quick
            test_store_latent_healed_by_scrub;
          Alcotest.test_case "unrecoverable loss drops generation" `Quick
            test_store_unrecoverable_loss_drops_generation;
          Alcotest.test_case "quarantine drops the whole record" `Quick
            test_store_quarantine_drops_record;
          Alcotest.test_case "transient reads retried" `Quick
            test_store_transient_reads_retry;
          Alcotest.test_case "fault storm + crash recovers bit-exact" `Quick
            test_store_fault_storm_crash_recover_bitexact;
        ] );
      ( "block-table",
        [
          Alcotest.test_case "freed block leaves no stale state" `Quick
            test_store_freed_block_state;
          Alcotest.test_case "put_pages with a repeated page index" `Quick
            test_store_put_pages_repeated_index;
          Alcotest.test_case "large protected store commits and reopens" `Quick
            test_store_large_protected_commit;
          Alcotest.test_case "bad block pointers quarantine their generation" `Quick
            test_store_bad_pointer_quarantined;
          Alcotest.test_case "retained words per page" `Quick test_store_retention;
          qt (prop_store_model { Store.verify = false; mirror = false });
          qt (prop_store_model { Store.verify = true; mirror = false });
          qt (prop_store_model { Store.verify = false; mirror = true });
          qt (prop_store_model full_protection);
        ] );
    ]
