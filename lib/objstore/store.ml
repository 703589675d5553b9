open Aurora_simtime
open Aurora_device
open Aurora_posix
open Aurora_vm

type gen = int

let magic = "AURORA-SLS-v3"
let superblock_slots = 2 (* blocks 0 and 1 *)

(* Two reserved blocks right after the superblocks hold the flight
   recorder's black box: a tiny summary written asynchronously on
   every checkpoint capture, outside any generation, so a post-mortem
   can name epochs that were captured but never became durable. The
   slots alternate like superblocks so a crash mid-write leaves the
   previous summary intact. *)
let blackbox_slots = 2 (* blocks 2 and 3 *)
let reserved_blocks = superblock_slots + blackbox_slots
let bbox_magic = "AURORA-BBSL-v1"

(* --- integrity / fault taxonomy ------------------------------------- *)

type protection = { verify : bool; mirror : bool }

type repair_origin = Mirror | Dedup_copy

type error =
  | No_superblock
  | Bad_generation_table of string
  | Out_of_space
  | Unreadable_block of { block : int; cause : string }
  | Device_failed of string

exception Fail of error

let describe_error = function
  | No_superblock -> "no valid superblock"
  | Bad_generation_table msg -> "generation table: " ^ msg
  | Out_of_space -> "device out of space"
  | Unreadable_block { block; cause } ->
    Printf.sprintf "block %d unreadable beyond repair: %s" block cause
  | Device_failed msg -> "device failed: " ^ msg

let () =
  Printexc.register_printer (function
    | Fail e -> Some ("Store failure: " ^ describe_error e)
    | _ -> None)

type io_stats = {
  mutable read_retries : int;
  mutable checksum_failures : int;
  mutable repaired_from_mirror : int;
  mutable repaired_from_dedup : int;
  mutable lost_blocks : int;
}

(* Per-generation storage provenance, accumulated at write time (from
   [begin_generation] through [commit]) and persisted in the
   generation table so offline inspection sees the same numbers. The
   fields are physically mutable but the interface exports the type
   [private]: only this module accumulates. *)
type provenance = {
  pv_gen : gen;
  mutable pv_records : int;
  mutable pv_pages : int;
  mutable pv_blobs : int;
  mutable pv_logical_bytes : int;
  mutable pv_data_blocks : int;
  mutable pv_dedup_hits : int;
  mutable pv_dedup_saved_bytes : int;
  mutable pv_mirror_blocks : int;
  mutable pv_meta_blocks : int;
  mutable pv_commit_blocks : int;
}

let fresh_provenance gen =
  { pv_gen = gen; pv_records = 0; pv_pages = 0; pv_blobs = 0;
    pv_logical_bytes = 0; pv_data_blocks = 0; pv_dedup_hits = 0;
    pv_dedup_saved_bytes = 0; pv_mirror_blocks = 0; pv_meta_blocks = 0;
    pv_commit_blocks = 0 }

let bytes_written p =
  (p.pv_data_blocks + p.pv_mirror_blocks + p.pv_meta_blocks + p.pv_commit_blocks)
  * Blockdev.block_size

(* One committed generation: its tree root, optional name, write-time
   provenance, and when its superblock (hence everything it
   references) is durable — [None] for a generation recovered from
   disk. Awaiting [durable_at] covers exactly one epoch's writes, not
   the whole array's. *)
type gen_entry = {
  root : int;
  name : string option;
  prov : provenance;
  mutable durable_at : Duration.t option;
}

module Gens = Map.Make (Int)

type t = {
  dev : Devarray.t;
  alloc : Alloc.t;
  tree : Btree.t;
  dedup_enabled : bool;
  mutable gens : gen_entry Gens.t;   (* the generation table, by number *)
  mutable commit_seq : int;          (* superblock alternation counter *)
  mutable next_gen : gen;
  mutable gentable_blocks : int list; (* blocks holding the current gen table *)
  mutable prev_gentable_blocks : int list;
  (* The table referenced by the *other* superblock slot. Kept
     allocated until that slot is overwritten: if the crash drops the
     newest superblock, recovery falls back to the other slot, whose
     table must still be intact on disk. *)
  mutable gentable_mirror_blocks : int list;
  mutable prev_gentable_mirror_blocks : int list;
  mutable gentable_csum : int64;     (* hash of the encoded table *)
  mutable open_gen : (gen * int * provenance) option;
  (* The generation being built: its number, working root, provenance. *)
  mutable pending_pages : (int * Blockdev.content) list; (* data block writes *)
  mutable prot : protection;
  io : io_stats;
  mutable repair_log : (int * repair_origin) list;
  mutable quarantined : (gen * string) list;
  mutable tel : Telemetry.store option;
  mutable sb_horizon : Duration.t;
  (* Completion time of the newest superblock write. Each superblock
     is ordered after the previous one (written with [not_before] at
     least this), so superblock durability is monotone in commit
     order: recovery always sees a committed *prefix* of generations,
     never a torn suffix. *)
  deferred : (Duration.t * int list) Queue.t;
  (* Freed blocks parked until the first superblock written after the
     free is durable (release time, blocks). Superblock durability is
     monotone, so the queue is in release order. Reusing them earlier
     could tear a crash that falls back to an older superblock still
     referencing them. *)
  mutable bbox_seq : int; (* black-box slot alternation counter *)
  mutable read_cls : Iosched.cls;
  (* The I/O class charged for store reads. [Foreground] normally;
     scrub/fsck and replication export flip it to [Background] around
     their scans so bulk verification never competes with application
     reads for reserved scheduler slack. *)
}

let generations t = List.map fst (Gens.bindings t.gens)
let latest t = Option.map fst (Gens.max_binding_opt t.gens)

(* --- key encoding ---------------------------------------------------
   key = oid * 2^34 + kind * 2^32 + index
   kinds: 0 = record length (Imm), 1 = record chunk (Ptr), 2 = page (Ptr). *)

let kind_record_len = 0L
let kind_record_chunk = 1L
let kind_page = 2L
let kind_blob = 3L

(* FNV-1a, for content-addressing byte blobs. *)
let hash_string s =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001B3L)
    s;
  !h

(* The same hash the dedup index uses: a block's checksum and its dedup
   key share one column of the block table, and a corrupted block's
   expected checksum doubles as a lookup key for a surviving
   duplicate. *)
let checksum_content = function
  | Blockdev.Data s -> hash_string s
  | Blockdev.Seed s -> Content.hash (Content.of_seed s)
  | Blockdev.Zero -> 0L

let key ~oid ~kind ~index =
  if oid < 0 || oid >= 1 lsl 29 then invalid_arg "Store: oid out of range";
  if index < 0 || index >= 1 lsl 32 then invalid_arg "Store: index out of range";
  Int64.add
    (Int64.add
       (Int64.mul (Int64.of_int oid) 0x4_0000_0000L)
       (Int64.mul kind 0x1_0000_0000L))
    (Int64.of_int index)

(* --- verified reads and read repair ---------------------------------- *)

let max_read_retries = 4

(* Retry a transiently failing read with exponential backoff, charged
   to the simulated clock; persistent faults (latent sectors, dropped
   devices, exhausted retries) surface as [Error]. *)
let rec device_read_retry t block attempt =
  match Devarray.read ~cls:t.read_cls t.dev block with
  | c -> Ok c
  | exception Fault.Io_error (Fault.Transient _ as e) ->
    if attempt >= max_read_retries then Error e
    else begin
      t.io.read_retries <- t.io.read_retries + 1;
      Clock.advance (Devarray.clock t.dev)
        (Duration.scale (Devarray.profile t.dev).Profile.read_latency (1 lsl attempt));
      device_read_retry t block (attempt + 1)
    end
  | exception Fault.Io_error e -> Error e

let heal t block content origin =
  (* Best-effort rewrite: restores the content and clears any latent
     error on the sector. If the rewrite itself fails the repair still
     served this read; the block stays degraded on disk. *)
  (try Devarray.write ~cls:Iosched.Background t.dev block content
   with Fault.Io_error _ -> ());
  t.repair_log <- (block, origin) :: t.repair_log;
  match origin with
  | Mirror -> t.io.repaired_from_mirror <- t.io.repaired_from_mirror + 1
  | Dedup_copy -> t.io.repaired_from_dedup <- t.io.repaired_from_dedup + 1

let try_repair t block expected cause =
  let candidates =
    (match Alloc.mirror t.alloc block with
     | Some m -> [ (m, Mirror) ]
     | None -> [])
    @
    (match expected with
     | Some h -> (
       match Alloc.dedup_peek t.alloc ~hash:h with
       | Some b when b <> block -> [ (b, Dedup_copy) ]
       | Some _ | None -> [])
     | None -> [])
  in
  let acceptable c =
    match expected with
    | Some h -> checksum_content c = h
    | None -> c <> Blockdev.Zero
  in
  let rec go = function
    | [] ->
      t.io.lost_blocks <- t.io.lost_blocks + 1;
      raise (Fail (Unreadable_block { block; cause }))
    | (src, origin) :: rest -> (
      match device_read_retry t src 0 with
      | Ok c when acceptable c ->
        heal t block c origin;
        c
      | Ok _ | Error _ -> go rest)
  in
  go candidates

(* Every store read funnels through here (including B+tree node reads,
   via [Btree.set_reader]): retry transients, verify the checksum when
   protection is on, repair from the mirror or a dedup duplicate, and
   raise a typed failure only when no copy survives. *)
let verified_read t block =
  let expected = Alloc.checksum t.alloc block in
  match device_read_retry t block 0 with
  | Ok c -> (
    match expected with
    | Some h when checksum_content c <> h ->
      t.io.checksum_failures <- t.io.checksum_failures + 1;
      try_repair t block expected "checksum mismatch"
    | _ -> c)
  | Error e -> try_repair t block expected (Fault.describe e)

(* --- deferred frees --------------------------------------------------
   With pipelined commits, several superblocks can be in flight at
   once. A block freed between superblocks S_{j-1} and S_j becomes
   reusable only once S_j is durable: superblock durability is
   monotone (each is ordered after the previous), so from then on no
   recoverable state references the block. *)

let release_ready_frees t =
  let now = Clock.now (Devarray.clock t.dev) in
  let rec pop released =
    match Queue.peek_opt t.deferred with
    | Some (at, blocks) when Duration.(at <= now) ->
      ignore (Queue.take t.deferred);
      Alloc.release t.alloc blocks;
      pop (released + List.length blocks)
    | Some _ | None -> released
  in
  let blocks = pop 0 in
  if blocks > 0 then
    Option.iter (fun s -> Telemetry.alloc_defer s ~op:"release" ~us:0. ~blocks) t.tel;
  blocks > 0

(* Capacity-pressure hook: rather than declare the device full while
   freed blocks sit gated behind an in-flight superblock, block until
   the earliest gating superblock lands and hand the blocks back. *)
let settle_deferred_frees t =
  let released = release_ready_frees t in
  match Queue.peek_opt t.deferred with
  | None -> released
  | Some (at, _) ->
    let now = Clock.now (Devarray.clock t.dev) in
    Devarray.await t.dev at;
    Option.iter
      (fun s ->
        Telemetry.alloc_defer s ~op:"settle" ~us:(Duration.to_us (Duration.sub at now))
          ~blocks:0)
      t.tel;
    ignore (release_ready_frees t);
    true

(* --- the black-box slot ----------------------------------------------
   A single-block, store-framed payload written outside any
   generation. The flight recorder uses it to persist its capture/ack
   summary on every checkpoint, which is the only way a post-mortem
   can name epochs that were committed but never became durable: the
   per-generation ring recovered from durable generation [g] only
   knows about captures up to [g]. *)

let encode_bbox ~seq payload =
  let w = Serial.writer () in
  Serial.w_string w bbox_magic;
  Serial.w_int w seq;
  Serial.w_string w payload;
  Serial.w_int64 w (hash_string payload);
  Serial.contents w

let decode_bbox data =
  match
    let r = Serial.reader data in
    if Serial.r_string r <> bbox_magic then None
    else
      let seq = Serial.r_int r in
      let payload = Serial.r_string r in
      if Serial.r_int64 r <> hash_string payload then None
      else Some (seq, payload)
  with
  | v -> v
  | exception Serial.Corrupt _ -> None

let write_blackbox t payload =
  t.bbox_seq <- t.bbox_seq + 1;
  let framed = encode_bbox ~seq:t.bbox_seq payload in
  if String.length framed > Blockdev.block_size then
    invalid_arg "Store.write_blackbox: summary exceeds one block";
  let slot = superblock_slots + (t.bbox_seq mod blackbox_slots) in
  (* Asynchronous, unordered and out-of-band: the black box must never
     add a barrier to the capture path, and it must be able to land
     while the epoch flush queued just after it is still draining —
     otherwise a crash that loses the epoch also loses the summary
     naming it. A crash before the write completes loses this summary
     but leaves the other slot intact; a write fault is best-effort by
     the same argument. *)
  try ignore (Devarray.write_oob t.dev [ (slot, Blockdev.Data framed) ])
  with Fault.Io_error _ -> ()

(* The intact summaries, as (sequence, payload), in slot order. *)
let bbox_summaries t =
  List.init blackbox_slots (fun i ->
      match device_read_retry t (superblock_slots + i) 0 with
      | Ok (Blockdev.Data s) -> decode_bbox s
      | Ok _ | Error _ -> None)
  |> List.filter_map Fun.id

let read_blackbox t =
  match List.sort (fun (a, _) (b, _) -> Int.compare b a) (bbox_summaries t) with
  | [] -> None
  | (_, payload) :: _ -> Some payload

(* Resume slot alternation above any surviving summary so reopening
   never clobbers the newest valid slot with the next write. *)
let scan_bbox_seq t = List.fold_left (fun acc (seq, _) -> max acc seq) 0 (bbox_summaries t)

(* --- construction --------------------------------------------------- *)

let make ?(dedup = true) ?prot dev =
  let prot =
    match prot with
    | Some p -> p
    | None ->
      (* A faulty device gets the integrity machinery by default; a
         perfect device keeps the lean layout. *)
      if Devarray.has_faults dev then { verify = true; mirror = true }
      else { verify = false; mirror = false }
  in
  let alloc =
    Alloc.create ~first_block:reserved_blocks
      ?capacity_blocks:(Devarray.capacity_blocks dev)
      ~stripes:(Devarray.stripes dev) ()
  in
  let tree = Btree.create ~dev ~alloc in
  let t =
    { dev; alloc; tree; dedup_enabled = dedup;
      gens = Gens.empty; commit_seq = 0; next_gen = 1;
      gentable_blocks = []; prev_gentable_blocks = [];
      gentable_mirror_blocks = []; prev_gentable_mirror_blocks = [];
      gentable_csum = hash_string ""; open_gen = None; pending_pages = [];
      prot;
      io = { read_retries = 0; checksum_failures = 0; repaired_from_mirror = 0;
             repaired_from_dedup = 0; lost_blocks = 0 };
      repair_log = []; quarantined = []; tel = None; sb_horizon = Duration.zero;
      deferred = Queue.create (); bbox_seq = 0; read_cls = Iosched.Foreground }
  in
  Alloc.set_deferred_frees alloc true;
  Alloc.set_pressure_hook alloc (fun () -> settle_deferred_frees t);
  Btree.set_reader tree (fun b -> verified_read t b);
  t

(* A block number read from disk must name a block this store could
   have allocated: not a reserved slot, not past the device. *)
let valid_block t b =
  b >= reserved_blocks
  && match Devarray.capacity_blocks t.dev with Some cap -> b < cap | None -> true

(* The superblock names the generation table's chunks (and its
   mirror's). A table too long to list inline — a protected store keeps
   a checksum and a mirror entry per block in it — is named through
   [sb_depth] levels of index blocks instead: each level is a Serial
   list of block numbers chunked over blocks, and the deepest level
   lists the table's own chunks. An inline table has depth 0. *)
type superblock = {
  sb_seq : int;
  sb_next_gen : int;
  sb_depth : int;
  sb_table : int list;
  sb_verify : bool;
  sb_mirror : bool;
  sb_table_mirror : int list;
  sb_table_csum : int64;
}

(* Block numbers per copy an indexed superblock lists. *)
let index_fanout = 200

(* The payload is wrapped with its own checksum so a silently
   corrupted slot is rejected at recovery instead of trusted. *)
let encode_superblock sb =
  let w = Serial.writer () in
  Serial.w_string w magic;
  Serial.w_int w sb.sb_seq;
  Serial.w_int w sb.sb_next_gen;
  Serial.w_int w sb.sb_depth;
  Serial.w_list w Serial.w_int sb.sb_table;
  Serial.w_u8 w (if sb.sb_verify then 1 else 0);
  Serial.w_u8 w (if sb.sb_mirror then 1 else 0);
  Serial.w_list w Serial.w_int sb.sb_table_mirror;
  Serial.w_int64 w sb.sb_table_csum;
  let payload = Serial.contents w in
  let outer = Serial.writer () in
  Serial.w_string outer payload;
  Serial.w_int64 outer (hash_string payload);
  Serial.contents outer

let decode_superblock data =
  let outer = Serial.reader data in
  let payload = Serial.r_string outer in
  if Serial.r_int64 outer <> hash_string payload then None
  else
    let r = Serial.reader payload in
    if Serial.r_string r <> magic then None
    else begin
      let sb_seq = Serial.r_int r in
      let sb_next_gen = Serial.r_int r in
      let sb_depth = Serial.r_int r in
      let sb_table = Serial.r_list r Serial.r_int in
      let sb_verify = Serial.r_u8 r = 1 in
      let sb_mirror = Serial.r_u8 r = 1 in
      let sb_table_mirror = Serial.r_list r Serial.r_int in
      let sb_table_csum = Serial.r_int64 r in
      Some { sb_seq; sb_next_gen; sb_depth; sb_table; sb_verify; sb_mirror;
             sb_table_mirror; sb_table_csum }
    end

let chunk_string data =
  let n = String.length data in
  let nchunks = (n + Blockdev.block_size - 1) / Blockdev.block_size in
  List.init nchunks (fun i ->
      String.sub data (i * Blockdev.block_size)
        (min Blockdev.block_size (n - (i * Blockdev.block_size))))

let encode_blocks blocks =
  let w = Serial.writer () in
  Serial.w_list w Serial.w_int blocks;
  Serial.contents w

let superblock t ~depth ~table ~mirror =
  { sb_seq = t.commit_seq; sb_next_gen = t.next_gen; sb_depth = depth; sb_table = table;
    sb_verify = t.prot.verify; sb_mirror = t.prot.mirror; sb_table_mirror = mirror;
    sb_table_csum = t.gentable_csum }

(* Index blocks per level needed to name a table of [n] chunks per
   copy ([copies] is 2 with the mirror); [] when the superblock lists
   them inline. *)
let index_plan t ~copies n =
  let inline = encode_superblock (superblock t ~depth:0 ~table:[] ~mirror:[]) in
  let rec levels n =
    if n <= index_fanout then []
    else
      (* [encode_blocks] of [n] blocks is 8 + 8n bytes. *)
      let k = (8 + (8 * n) + Blockdev.block_size - 1) / Blockdev.block_size in
      k :: levels k
  in
  if String.length inline + (8 * copies * n) <= Blockdev.block_size then []
  else levels n

(* Write [depth] index levels above [blocks]: the top level the
   superblock lists, and the index writes. *)
let rec index_levels t depth blocks =
  if depth = 0 || blocks = [] then (blocks, [])
  else begin
    let idx =
      List.map (fun c -> (Alloc.alloc t.alloc, c)) (chunk_string (encode_blocks blocks))
    in
    let top, writes = index_levels t (depth - 1) (List.map fst idx) in
    (top, idx @ writes)
  end

(* Follow [depth] index levels down from [blocks]: the table's chunk
   list and the index blocks passed on the way, or [None] when a level
   does not read back. *)
let rec resolve_index read depth blocks =
  if depth = 0 || blocks = [] then Some (blocks, [])
  else
    match Option.map (fun s -> Serial.r_list (Serial.reader s) Serial.r_int) (read blocks) with
    | None | (exception Serial.Corrupt _) -> None
    | Some next ->
      Option.map
        (fun (leaves, index) -> (leaves, blocks @ index))
        (resolve_index read (depth - 1) next)

(* A list of (block, value) pairs in block order, read straight off
   the block table: the bytes of a [Serial.w_list]. *)
let w_column w iter w_value =
  let n = ref 0 in
  iter (fun _ _ -> incr n);
  Serial.w_int w !n;
  iter (fun b v ->
      Serial.w_int w b;
      w_value w v)

(* The rows in generation order, then the block table's checksum and
   mirror columns, then each row's provenance (so offline inspection
   of a reopened store sees write-time accounting too). Every field of
   a provenance row is a fixed-width int, and the last one written is
   the newest generation's [pv_commit_blocks]. *)
let encode_gentable t =
  let w = Serial.writer () in
  let rows = Gens.bindings t.gens in
  Serial.w_list w (fun w (g, e) ->
      Serial.w_int w g;
      Serial.w_int w e.root;
      Serial.w_option w Serial.w_string e.name)
    rows;
  if t.prot.verify then w_column w (Alloc.iter_checksums t.alloc) Serial.w_int64;
  if t.prot.mirror then w_column w (Alloc.iter_mirrors t.alloc) Serial.w_int;
  Serial.w_list w
    (fun w (_, { prov = p; _ }) ->
      List.iter (Serial.w_int w)
        [ p.pv_gen; p.pv_records; p.pv_pages; p.pv_blobs; p.pv_logical_bytes;
          p.pv_data_blocks; p.pv_dedup_hits; p.pv_dedup_saved_bytes;
          p.pv_mirror_blocks; p.pv_meta_blocks; p.pv_commit_blocks ])
    rows;
  Serial.contents w

(* Checksums and mirrors go straight into the block table. *)
let decode_gentable t data =
  let r = Serial.reader data in
  let rows =
    Serial.r_list r (fun r ->
        let g = Serial.r_int r in
        let root = Serial.r_int r in
        (g, root, Serial.r_option r Serial.r_string))
  in
  let block r =
    let b = Serial.r_int r in
    if valid_block t b then b
    else raise (Serial.Corrupt (Printf.sprintf "table names block %d" b))
  in
  if t.prot.verify then
    ignore
      (Serial.r_list r (fun r ->
           let b = block r in
           Alloc.set_checksum t.alloc b (Serial.r_int64 r)));
  if t.prot.mirror then
    ignore
      (Serial.r_list r (fun r ->
           let b = block r in
           Alloc.set_mirror t.alloc b (block r)));
  let provs =
    Serial.r_list r (fun r ->
        match Array.init 11 (fun _ -> Serial.r_int r) with
        | [| pv_gen; pv_records; pv_pages; pv_blobs; pv_logical_bytes; pv_data_blocks;
             pv_dedup_hits; pv_dedup_saved_bytes; pv_mirror_blocks; pv_meta_blocks;
             pv_commit_blocks |] ->
          { pv_gen; pv_records; pv_pages; pv_blobs; pv_logical_bytes;
            pv_data_blocks; pv_dedup_hits; pv_dedup_saved_bytes;
            pv_mirror_blocks; pv_meta_blocks; pv_commit_blocks }
        | _ -> assert false)
  in
  if List.compare_lengths rows provs <> 0
     || List.exists2 (fun (g, _, _) p -> p.pv_gen <> g) rows provs
  then raise (Serial.Corrupt "provenance rows do not match the generations");
  List.fold_left2
    (fun gens (g, root, name) prov -> Gens.add g { root; name; prov; durable_at = None } gens)
    Gens.empty rows provs

let format ?dedup ?protection ~dev () =
  let t = make ?dedup ?prot:protection dev in
  (* Empty gen table: superblock alone describes the store. *)
  Devarray.write dev 0
    (Blockdev.Data (encode_superblock (superblock t ~depth:0 ~table:[] ~mirror:[])));
  Devarray.flush dev;
  t

let device t = t.dev
let protection t = t.prot
let read_class t = t.read_cls
let set_read_class t cls = t.read_cls <- cls

let set_observability t ?tel () =
  t.tel <- Option.map (fun tel -> Telemetry.store tel (Devarray.name t.dev)) tel

(* --- commit ---------------------------------------------------------- *)

let require_open t =
  match t.open_gen with
  | Some g -> g
  | None -> invalid_arg "Store: no open generation"

let require_closed t =
  if t.open_gen <> None then invalid_arg "Store: a generation is already open"

let begin_generation t ?base () =
  require_closed t;
  let g = t.next_gen in
  t.next_gen <- g + 1;
  Btree.begin_epoch t.tree g;
  let base = match base with Some b -> Some b | None -> latest t in
  let root =
    match base with
    | None -> Btree.empty_root t.tree
    | Some b -> (
      match Gens.find_opt b t.gens with
      | None -> invalid_arg (Printf.sprintf "Store: unknown base generation %d" b)
      | Some e ->
        (* The working tree holds its own reference; the base keeps
           its generation-table reference. *)
        Btree.retain_root t.tree e.root;
        e.root)
  in
  t.open_gen <- Some (g, root, fresh_provenance g);
  g

let open_prov t =
  let _, _, prov = require_open t in
  prov

let tree_insert t key value =
  let g, root, prov = require_open t in
  t.open_gen <- Some (g, Btree.insert t.tree ~root ~key value, prov)

let note_csum t block content =
  if t.prot.verify then Alloc.set_checksum t.alloc block (checksum_content content)

(* Queue a data block for the commit flush, recording its checksum and
   (when mirroring) allocating and queueing a replica in the same
   batch. *)
let queue_data t block content =
  note_csum t block content;
  t.pending_pages <- (block, content) :: t.pending_pages;
  let p = open_prov t in
  p.pv_data_blocks <- p.pv_data_blocks + 1;
  if t.prot.mirror && Alloc.mirror t.alloc block = None then begin
    let m = Alloc.alloc t.alloc in
    Alloc.set_mirror t.alloc block m;
    t.pending_pages <- (m, content) :: t.pending_pages;
    p.pv_mirror_blocks <- p.pv_mirror_blocks + 1
  end

(* A dedup hit (or an intra-batch duplicate) is one avoided write:
   credit the generation's provenance and the index's savings ledger. *)
let note_dedup_saved t ~hits ~bytes =
  if hits > 0 then begin
    Alloc.note_saved t.alloc ~bytes;
    let p = open_prov t in
    p.pv_dedup_hits <- p.pv_dedup_hits + hits;
    p.pv_dedup_saved_bytes <- p.pv_dedup_saved_bytes + bytes
  end

(* The block for a page or blob: a stored duplicate gains a reference
   (one avoided write of [bytes]), or a fresh block is queued and
   indexed by content. *)
let content_block t content ~bytes =
  let hash = checksum_content content in
  match (if t.dedup_enabled then Alloc.dedup_find t.alloc ~hash else None) with
  | Some block ->
    Alloc.incref t.alloc block;
    note_dedup_saved t ~hits:1 ~bytes;
    block
  | None ->
    let block = Alloc.alloc t.alloc in
    queue_data t block content;
    if t.dedup_enabled then Alloc.dedup_add t.alloc ~hash ~block;
    block

let put_record t ~oid data =
  let _, root, p = require_open t in
  Option.iter (fun s -> Telemetry.store_put s ~records:1 ~pages:0) t.tel;
  p.pv_records <- p.pv_records + 1;
  p.pv_logical_bytes <- p.pv_logical_bytes + String.length data;
  (* Stale chunks from a longer previous record are overwritten with
     immediates so their blocks are released. *)
  let old_chunks =
    match Btree.find t.tree ~root (key ~oid ~kind:kind_record_len ~index:1) with
    | Some (Btree.Imm n) -> Int64.to_int n
    | Some (Btree.Ptr _) | None -> 0
  in
  let chunks = chunk_string data in
  let nchunks = List.length chunks in
  List.iteri
    (fun i chunk ->
      let block = Alloc.alloc t.alloc in
      queue_data t block (Blockdev.Data chunk);
      tree_insert t (key ~oid ~kind:kind_record_chunk ~index:i) (Btree.Ptr block))
    chunks;
  let rec blank i =
    if i < old_chunks then begin
      tree_insert t (key ~oid ~kind:kind_record_chunk ~index:i) (Btree.Imm 0L);
      blank (i + 1)
    end
  in
  blank nchunks;
  tree_insert t (key ~oid ~kind:kind_record_len ~index:0)
    (Btree.Imm (Int64.of_int (String.length data)));
  tree_insert t (key ~oid ~kind:kind_record_len ~index:1)
    (Btree.Imm (Int64.of_int nchunks))

let put_page t ~oid ~pindex ~seed =
  let p = open_prov t in
  let k = key ~oid ~kind:kind_page ~index:pindex in
  Option.iter (fun s -> Telemetry.store_put s ~records:0 ~pages:1) t.tel;
  p.pv_pages <- p.pv_pages + 1;
  p.pv_logical_bytes <- p.pv_logical_bytes + Blockdev.block_size;
  tree_insert t k (Btree.Ptr (content_block t (Blockdev.Seed seed) ~bytes:Blockdev.block_size))

(* Batched page ingest: dedup hits resolve to existing blocks; the
   distinct misses share one stripe-aware extent of fresh contiguous
   logical blocks, so the background flush fans the batch out as one
   contiguous physical run per device instead of scattered singleton
   writes. *)
let put_pages t ~oid pages =
  let p = open_prov t in
  let n = Array.length pages in
  let keys = Array.map (fun (pindex, _) -> key ~oid ~kind:kind_page ~index:pindex) pages in
  Option.iter (fun s -> Telemetry.store_put s ~records:0 ~pages:n) t.tel;
  p.pv_pages <- p.pv_pages + n;
  p.pv_logical_bytes <- p.pv_logical_bytes + (n * Blockdev.block_size);
  if n > 0 then begin
    let hit = Array.make n (-1) in       (* the page's block; -1 until resolved *)
    let slot_of = Array.make n (-1) in   (* index into the fresh extent *)
    let fresh_slots = Hashtbl.create 16 in
    let fresh_seeds = ref [] in
    let nmiss = ref 0 in
    let miss seed =
      let s = !nmiss in
      fresh_seeds := seed :: !fresh_seeds;
      incr nmiss;
      s
    in
    Array.iteri
      (fun i (_, seed) ->
        if not t.dedup_enabled then slot_of.(i) <- miss seed
        else begin
          let hash = Content.hash (Content.of_seed seed) in
          match Alloc.dedup_find t.alloc ~hash with
          | Some block ->
            Alloc.incref t.alloc block;
            hit.(i) <- block
          | None -> (
            match Hashtbl.find_opt fresh_slots hash with
            | Some s -> slot_of.(i) <- s
            | None ->
              let s = miss seed in
              Hashtbl.replace fresh_slots hash s;
              slot_of.(i) <- s)
        end)
      pages;
    (* Every page that did not need a fresh slot — a dedup hit or an
       intra-batch duplicate — is one avoided block write. *)
    note_dedup_saved t ~hits:(n - !nmiss) ~bytes:((n - !nmiss) * Blockdev.block_size);
    let ext = Alloc.alloc_extent t.alloc !nmiss in
    let seeds = Array.of_list (List.rev !fresh_seeds) in
    Array.iteri
      (fun s seed ->
        let block = ext.(s) in
        queue_data t block (Blockdev.Seed seed);
        if t.dedup_enabled then
          Alloc.dedup_add t.alloc ~hash:(Content.hash (Content.of_seed seed)) ~block)
      seeds;
    (* The first reference to a fresh block consumes the allocation's
       refcount; intra-batch duplicates add their own. Every reference
       is taken before any insert, so a page overwritten later in the
       batch cannot free a block an earlier page still names. *)
    let extent_used = Array.make !nmiss false in
    Array.iteri
      (fun i _ ->
        if hit.(i) < 0 then begin
          let s = slot_of.(i) in
          if extent_used.(s) then Alloc.incref t.alloc ext.(s)
          else extent_used.(s) <- true;
          hit.(i) <- ext.(s)
        end)
      pages;
    Array.iteri (fun i k -> tree_insert t k (Btree.Ptr hit.(i))) keys
  end

let put_blob t ~oid ~index data =
  let p = open_prov t in
  if String.length data > Blockdev.block_size then
    invalid_arg "Store.put_blob: blob exceeds block size";
  let k = key ~oid ~kind:kind_blob ~index in
  p.pv_blobs <- p.pv_blobs + 1;
  p.pv_logical_bytes <- p.pv_logical_bytes + String.length data;
  tree_insert t k (Btree.Ptr (content_block t (Blockdev.Data data) ~bytes:(String.length data)))

(* Checksum and mirror the B+tree node flush: observes the queued node
   writes and appends the replica writes to the same submission. *)
let meta_tee t writes =
  let extra = ref [] in
  List.iter
    (fun (b, c) ->
      note_csum t b c;
      if t.prot.mirror then begin
        let m =
          match Alloc.mirror t.alloc b with
          | Some m -> m
          | None ->
            let m = Alloc.alloc t.alloc in
            Alloc.set_mirror t.alloc b m;
            m
        in
        extra := (m, c) :: !extra
      end)
    writes;
  List.rev !extra

let write_superblock ?(after = Duration.zero) ?commit t =
  (* Allocate and queue the new generation table (and its mirror)
     before touching any in-memory state: an out-of-space or device
     failure here unwinds cleanly, with the fresh blocks reclaimed by
     the rollback rebuild. Only then free the table referenced by the
     superblock slot this write is about to overwrite (the other slot
     still points at [t.gentable_blocks]; the deferral pen keeps both
     tables unreusable until this superblock lands).

     The superblock is ordered after exactly its own dependencies —
     the table chunks just queued, the caller's completion group
     ([after], covering this generation's data and tree writes), and
     the previous superblock ([sb_horizon], which transitively covers
     every older generation). That replaces the old whole-array
     commit barrier: unrelated app I/O and *younger* epochs sharing
     the queues no longer gate this commit, yet a durable superblock
     still implies durable contents, and superblock durability stays
     monotone in commit order (the crash-prefix invariant).

     A commit passes its generation's provenance as [commit]: the table
     carries its commit-block count, which the table's own size
     decides. The count is that row's last field and the committing
     generation is the newest, so it fills the table's last 8 bytes. *)
  let table = encode_gentable t in
  let nchunks = (String.length table + Blockdev.block_size - 1) / Blockdev.block_size in
  let copies = if t.prot.mirror then 2 else 1 in
  let plan = index_plan t ~copies nchunks in
  let table =
    match commit with
    | None -> table
    | Some p ->
      p.pv_commit_blocks <- 1 (* superblock *) + (copies * (nchunks + List.fold_left ( + ) 0 plan));
      let b = Bytes.of_string table in
      Bytes.set_int64_le b (Bytes.length b - 8) (Int64.of_int p.pv_commit_blocks);
      Bytes.unsafe_to_string b
  in
  let chunks = chunk_string table in
  let depth = List.length plan in
  let blocks = List.map (fun chunk -> (Alloc.alloc t.alloc, chunk)) chunks in
  let mirror_blocks =
    if t.prot.mirror then List.map (fun chunk -> (Alloc.alloc t.alloc, chunk)) chunks
    else []
  in
  let top, index = index_levels t depth (List.map fst blocks) in
  let mirror_top, mirror_index = index_levels t depth (List.map fst mirror_blocks) in
  let table_done =
    Devarray.write_async ~cls:Iosched.Deadline t.dev
      (List.map
         (fun (b, chunk) -> (b, Blockdev.Data chunk))
         (blocks @ mirror_blocks @ index @ mirror_index))
  in
  List.iter (fun b -> Alloc.decref t.alloc b) t.prev_gentable_blocks;
  List.iter (fun b -> Alloc.decref t.alloc b) t.prev_gentable_mirror_blocks;
  t.prev_gentable_blocks <- t.gentable_blocks;
  t.prev_gentable_mirror_blocks <- t.gentable_mirror_blocks;
  t.gentable_blocks <- List.map fst (blocks @ index);
  t.gentable_mirror_blocks <- List.map fst (mirror_blocks @ mirror_index);
  t.gentable_csum <- hash_string table;
  t.commit_seq <- t.commit_seq + 1;
  let slot = t.commit_seq mod superblock_slots in
  let not_before = Duration.max after (Duration.max table_done t.sb_horizon) in
  let sb = superblock t ~depth ~table:top ~mirror:mirror_top in
  let durable_at =
    Devarray.write_async ~not_before ~cls:Iosched.Deadline t.dev
      [ (slot, Blockdev.Data (encode_superblock sb)) ]
  in
  (* Blocks freed since the previous superblock become reusable once
     this one is durable. *)
  (match Alloc.take_parked t.alloc with
   | [] -> ()
   | parked ->
     Option.iter
       (fun s -> Telemetry.alloc_defer s ~op:"park" ~us:0. ~blocks:(List.length parked))
       t.tel;
     Queue.add (durable_at, parked) t.deferred);
  t.sb_horizon <- durable_at;
  ignore (release_ready_frees t);
  durable_at

(* --- recovery core (shared by open, rollback and scrub) -------------- *)

(* Every pointer under [root] in tree order: [visit ~node block] sees
   each one and returns whether to descend into it; data pointers are
   never descended into. A node that does not decode goes to
   [on_error], which re-raises by default. *)
let rec walk_tree ?(on_error = fun _ e -> raise e) t block ~visit =
  if visit ~node:true block then
    match Btree.view t.tree block with
    | exception ((Serial.Corrupt _ | Fail _) as e) -> on_error block e
    | Btree.Internal_view children ->
      List.iter (fun c -> walk_tree ~on_error t c ~visit) children
    | Btree.Leaf_view entries ->
      List.iter
        (function _, Btree.Ptr b -> ignore (visit ~node:false b) | _, Btree.Imm _ -> ())
        entries

(* Run [f] on each committed generation's root in generation order;
   [f] raising [Fail (Unreadable_block _)] or [Serial.Corrupt] names
   the reason to drop the generation, which [drop] receives. *)
let iter_gens_or_drop t f ~drop =
  Gens.iter
    (fun g e ->
      match f e.root with
      | () -> ()
      | exception Fail (Unreadable_block { block; cause }) ->
        drop g (Printf.sprintf "block %d: %s" block cause)
      | exception Serial.Corrupt msg -> drop g msg)
    t.gens

let quarantine t g reason =
  t.gens <- Gens.remove g t.gens;
  t.quarantined <- (g, reason) :: t.quarantined

exception Restart

(* The blocks of both generation-table copies (and their mirrors) the
   superblock slots name. *)
let table_blocks t =
  [ t.gentable_blocks; t.prev_gentable_blocks; t.gentable_mirror_blocks;
    t.prev_gentable_mirror_blocks ]

(* Rebuild reference counts by walking every generation tree: a
   block's count is the number of edges (parent links, value pointers,
   generation roots, table entries) that reach it. Each block's
   outgoing edges are counted exactly once, on its first reference. A
   pointer that names no block this store could have written is
   corruption, found before the block table grows to cover it. A
   generation whose walk hits an unrepairable block is quarantined —
   dropped from the store and reported lost — and the walk restarts
   over the survivors. *)
let recover_refcounts t =
  let check_ptr b =
    if not (valid_block t b) || Devarray.peek t.dev b = Blockdev.Zero then
      raise (Serial.Corrupt (Printf.sprintf "pointer to block %d names no written block" b))
  in
  (* Re-add content addresses. Identical content may sit in several
     blocks (record chunks are not deduped at write time), so the first
     mapping wins. *)
  let index_content block hash =
    if Alloc.dedup_peek t.alloc ~hash = None then Alloc.dedup_add t.alloc ~hash ~block
  in
  let visit ~node block =
    check_ptr block;
    let first = Alloc.mark_live t.alloc block in
    if first then begin
      Option.iter (fun m -> ignore (Alloc.mark_live t.alloc m)) (Alloc.mirror t.alloc block);
      if not node then
        match verified_read t block with
        | Blockdev.Seed s -> index_content block (Content.hash (Content.of_seed s))
        | Blockdev.Data d -> index_content block (hash_string d)
        | Blockdev.Zero -> ()
    end;
    first
  in
  let rec attempt () =
    Alloc.reset t.alloc;
    match
      iter_gens_or_drop t (walk_tree t ~visit) ~drop:(fun g reason ->
          quarantine t g reason;
          raise Restart)
    with
    | () ->
      List.iter (List.iter (fun b -> ignore (Alloc.mark_live t.alloc b))) (table_blocks t)
    | exception Restart -> attempt ()
  in
  attempt ()

let rebuild t =
  (* Cached nodes may describe state the device never saw (dirty nodes
     of an aborted generation); recovery trusts only the device. *)
  Btree.reset_cache t.tree;
  recover_refcounts t;
  (* Drop checksums and mirrors of blocks that did not survive. *)
  Alloc.prune t.alloc;
  (* Deferred frees still gated by an in-flight superblock are
     quarantined rather than released: an older superblock referencing
     them could still win a post-crash recovery. They leak as holes
     the fresh pointer skips. *)
  Queue.iter (fun (_, blocks) -> List.iter (Alloc.bump_fresh t.alloc) blocks) t.deferred;
  Queue.clear t.deferred

(* --- commit (continued) ---------------------------------------------- *)

let note_flush t ~gen ~started ~durable_at ~data_blocks =
  Option.iter
    (fun s -> Telemetry.store_commit s ~gen ~started ~durable_at ~data_blocks)
    t.tel

let commit_unchecked t ?name ?(cls = Iosched.Flush) () =
  let g, root, prov = require_open t in
  let flush_started = Clock.now (Devarray.clock t.dev) in
  t.open_gen <- None;
  let entry = { root; name; prov; durable_at = None } in
  t.gens <- Gens.add g entry t.gens;
  (* Data pages fan out across all stripes (per-device extents,
     overlapping in simulated time); tree nodes follow on whichever
     stripes their blocks map to; the superblock waits on the max of
     this epoch's per-device completion times — tracked by a
     completion group so younger epochs and unrelated traffic sharing
     the queues don't gate it. *)
  ignore (Devarray.begin_group t.dev);
  let data_batch = List.rev t.pending_pages in
  t.pending_pages <- [];
  let data_blocks = List.length data_batch in
  if data_batch <> [] then ignore (Devarray.write_async ~cls t.dev data_batch);
  (* The tee sees every flushed tree node, so provenance counts them
     even when the protection machinery (the tee's other job) is off. *)
  let counting_tee writes =
    let extra =
      if t.prot.verify || t.prot.mirror then meta_tee t writes else []
    in
    prov.pv_meta_blocks <- prov.pv_meta_blocks + List.length writes;
    prov.pv_mirror_blocks <- prov.pv_mirror_blocks + List.length extra;
    extra
  in
  ignore (Btree.flush_dirty ~tee:counting_tee ~cls t.tree);
  let after = Devarray.group_completion (Devarray.end_group t.dev) in
  let durable_at = write_superblock ~after ~commit:prov t in
  let durable_at =
    if (Devarray.profile t.dev).Profile.volatile_cache then begin
      (* No power-loss protection: a synchronous flush is the only way
         to durability, and the application pays for it. *)
      Devarray.flush t.dev;
      Clock.now (Devarray.clock t.dev)
    end
    else durable_at
  in
  entry.durable_at <- Some durable_at;
  note_flush t ~gen:g ~started:flush_started ~durable_at ~data_blocks;
  (g, durable_at)

let rollback t g =
  t.gens <- Gens.remove g t.gens;
  t.open_gen <- None;
  t.pending_pages <- [];
  Devarray.discard_group t.dev;
  rebuild t

let commit_result t ?name ?cls () =
  let g0, _, _ = require_open t in
  match commit_unchecked t ?name ?cls () with
  | res -> Ok res
  | exception Alloc.Out_of_space ->
    rollback t g0;
    Error Out_of_space
  | exception Fault.Io_error e ->
    (try rollback t g0 with Fault.Io_error _ | Fail _ -> ());
    Error (Device_failed (Fault.describe e))

let commit t ?name ?cls () =
  match commit_result t ?name ?cls () with
  | Ok res -> res
  | Error e -> raise (Fail e)

let abort_generation t =
  match t.open_gen with
  | None -> ()
  | Some (g, _, _) ->
    (* Discard the working tree wholesale and recompute allocator,
       dedup and protection state from the committed generations —
       robust even when the abort was triggered halfway through an
       allocation failure. *)
    rollback t g

let wait_durable t at = Devarray.await t.dev at

(* --- pipeline durability --------------------------------------------- *)

let gen_durable_at t g = Option.bind (Gens.find_opt g t.gens) (fun e -> e.durable_at)

let wait_all_durable t =
  if (Devarray.profile t.dev).Profile.volatile_cache then Devarray.flush t.dev
  else Devarray.await t.dev t.sb_horizon;
  ignore (release_ready_frees t)

(* --- reading --------------------------------------------------------- *)

(* Reading from the open generation is allowed (restores from the
   working tree are not, but tests peek). *)
let gen_root t g =
  match (Gens.find_opt g t.gens, t.open_gen) with
  | Some e, _ -> Some e.root
  | None, Some (og, root, _) when og = g -> Some root
  | None, _ -> None

let read_block_data t block =
  match verified_read t block with
  | Blockdev.Data s -> s
  | Blockdev.Seed _ | Blockdev.Zero ->
    raise (Serial.Corrupt (Printf.sprintf "Store: block %d is not a data block" block))

let read_record t g ~oid =
  match gen_root t g with
  | None -> None
  | Some root -> (
    match Btree.find t.tree ~root (key ~oid ~kind:kind_record_len ~index:0) with
    | None | Some (Btree.Ptr _) -> None
    | Some (Btree.Imm len64) ->
      let len = Int64.to_int len64 in
      let nchunks = (len + Blockdev.block_size - 1) / Blockdev.block_size in
      let buf = Buffer.create len in
      for i = 0 to nchunks - 1 do
        match Btree.find t.tree ~root (key ~oid ~kind:kind_record_chunk ~index:i) with
        | Some (Btree.Ptr block) -> Buffer.add_string buf (read_block_data t block)
        | Some (Btree.Imm _) | None ->
          raise (Serial.Corrupt (Printf.sprintf "Store: missing chunk %d of oid %d" i oid))
      done;
      Some (Buffer.contents buf))

let read_blob t g ~oid ~index =
  match gen_root t g with
  | None -> None
  | Some root -> (
    match Btree.find t.tree ~root (key ~oid ~kind:kind_blob ~index) with
    | Some (Btree.Ptr block) -> Some (read_block_data t block)
    | Some (Btree.Imm _) | None -> None)

let page_of_content block = function
  | Blockdev.Seed s -> s
  | Blockdev.Zero -> 0L
  | Blockdev.Data _ ->
    raise (Serial.Corrupt (Printf.sprintf "Store: page block %d holds metadata" block))

let read_page t g ~oid ~pindex =
  match gen_root t g with
  | None -> None
  | Some root -> (
    match Btree.find t.tree ~root (key ~oid ~kind:kind_page ~index:pindex) with
    | Some (Btree.Ptr block) -> Some (page_of_content block (verified_read t block))
    | Some (Btree.Imm _) | None -> None)

(* A payload fetched without retry or repair (batch DMA, where a latent
   sector comes back [Zero]; a clock-free peek): the checksum catches a
   substitution or silent corruption, and the single-block verified
   path re-reads and repairs. *)
let checked_content t block content =
  match Alloc.checksum t.alloc block with
  | Some h when checksum_content content <> h ->
    t.io.checksum_failures <- t.io.checksum_failures + 1;
    verified_read t block
  | _ -> content

let read_pages_batch t g ~oid ~pindexes =
  match gen_root t g with
  | None -> [||]
  | Some root ->
    (* Preallocated arrays end to end: locate into fixed buffers, one
       striped array read, map in place — no list churn on the restore
       hot path. *)
    let n = Array.length pindexes in
    let found = Array.make n 0 in
    let blocks = Array.make n 0 in
    let m = ref 0 in
    for i = 0 to n - 1 do
      match
        Btree.find t.tree ~root (key ~oid ~kind:kind_page ~index:pindexes.(i))
      with
      | Some (Btree.Ptr block) ->
        found.(!m) <- pindexes.(i);
        blocks.(!m) <- block;
        incr m
      | Some (Btree.Imm _) | None -> ()
    done;
    let m = !m in
    let contents = Devarray.read_many_arr ~cls:t.read_cls t.dev (Array.sub blocks 0 m) in
    Array.init m (fun i ->
        (found.(i), page_of_content blocks.(i) (checked_content t blocks.(i) contents.(i))))

let peek_page t g ~oid ~pindex =
  match gen_root t g with
  | None -> None
  | Some root -> (
    match Btree.find t.tree ~root (key ~oid ~kind:kind_page ~index:pindex) with
    | Some (Btree.Ptr block) ->
      Some (page_of_content block (checked_content t block (Devarray.peek t.dev block)))
    | Some (Btree.Imm _) | None -> None)

(* Fold over an object's block pointers of one kind, in index order. *)
let fold_kind t g ~oid ~kind ~init ~f =
  match gen_root t g with
  | None -> init
  | Some root ->
    let lo = key ~oid ~kind ~index:0 in
    Btree.fold_range t.tree ~root ~lo ~hi:(Int64.add lo 0xFFFF_FFFFL) ~init
      ~f:(fun acc k v ->
        match v with
        | Btree.Ptr block -> f acc (Int64.to_int (Int64.logand k 0xFFFF_FFFFL)) block
        | Btree.Imm _ -> acc)

let fold_page_indexes t g ~oid ~init ~f =
  fold_kind t g ~oid ~kind:kind_page ~init ~f:(fun acc i _ -> f acc i)

let fold_pages t g ~oid ~init ~f =
  fold_kind t g ~oid ~kind:kind_page ~init ~f:(fun acc i block ->
      f acc i (page_of_content block (verified_read t block)))

let fold_blobs t g ~oid ~init ~f =
  fold_kind t g ~oid ~kind:kind_blob ~init ~f:(fun acc i block ->
      f acc i (read_block_data t block))

let page_count t g ~oid = fold_kind t g ~oid ~kind:kind_page ~init:0 ~f:(fun n _ _ -> n + 1)

let oids t g =
  match gen_root t g with
  | None -> []
  | Some root ->
    Btree.fold_range t.tree ~root ~lo:Int64.min_int ~hi:Int64.max_int ~init:[]
      ~f:(fun acc k _ ->
        let oid = Int64.to_int (Int64.div k 0x4_0000_0000L) in
        match acc with o :: _ when o = oid -> acc | _ -> oid :: acc)
    |> List.rev

(* --- generations ----------------------------------------------------- *)

(* By name; a name given to several generations lists the newest
   first. *)
let named t =
  Gens.fold (fun g e acc -> match e.name with Some n -> (n, g) :: acc | None -> acc) t.gens []
  |> List.stable_sort (fun (a, _) (b, _) -> String.compare a b)

let find_named t name = List.assoc_opt name (named t)

let settle_durable t durable =
  if (Devarray.profile t.dev).Profile.volatile_cache then Devarray.flush t.dev
  else Devarray.await t.dev durable

let name_generation t g name =
  match Gens.find_opt g t.gens with
  | None -> invalid_arg (Printf.sprintf "Store.name_generation: unknown generation %d" g)
  | Some e ->
    t.gens <- Gens.add g { e with name = Some name } t.gens;
    settle_durable t (write_superblock t)

let gc t ~keep =
  require_closed t;
  let victims, kept = Gens.partition (fun g _ -> not (List.mem g keep)) t.gens in
  let before = Alloc.live_blocks t.alloc in
  t.gens <- kept;
  Gens.iter (fun _ e -> Btree.release_root t.tree e.root) victims;
  (* The release superblock drains in the background like any other
     commit; the deferral pen keeps the victims' blocks unreusable
     until it is durable, so there is nothing to await here. A
     volatile write cache still needs the explicit flush — completion
     times are not durability there. *)
  if not (Gens.is_empty victims) then begin
    ignore (write_superblock t);
    if (Devarray.profile t.dev).Profile.volatile_cache then Devarray.flush t.dev
  end;
  before - Alloc.live_blocks t.alloc

let retire t g =
  require_closed t;
  match Gens.find_opt g t.gens with
  | Some { name = None; root; _ } ->
    (* The freed blocks stay parked until the next superblock, which
       drops [g] from the table on disk, is durable. *)
    t.gens <- Gens.remove g t.gens;
    Btree.release_root t.tree root
  | Some _ | None -> ()

(* --- recovery -------------------------------------------------------- *)

let open_ ~dev =
  (* A transient error on a superblock slot must not silently discard
     the newer slot; retry before giving up on it. *)
  let rec read_slot_retry slot attempt =
    match Devarray.read dev slot with
    | c -> Some c
    | exception Fault.Io_error (Fault.Transient _) when attempt < max_read_retries ->
      read_slot_retry slot (attempt + 1)
    | exception Fault.Io_error _ -> None
  in
  let read_slot slot =
    match read_slot_retry slot 0 with
    | Some (Blockdev.Data s) -> (try decode_superblock s with Serial.Corrupt _ -> None)
    | Some (Blockdev.Seed _) | Some Blockdev.Zero | None -> None
  in
  let candidates =
    List.filter_map read_slot (List.init superblock_slots Fun.id)
    |> List.sort (fun a b -> Int.compare b.sb_seq a.sb_seq)
  in
  let try_candidate sb =
    let t = make dev in
    t.prot <- { verify = sb.sb_verify; mirror = sb.sb_mirror };
    t.commit_seq <- sb.sb_seq;
    t.next_gen <- sb.sb_next_gen;
    t.gentable_csum <- sb.sb_table_csum;
    (* A store that never committed a generation has no table. *)
    if sb.sb_table = [] then Ok t
    else begin
      let read_chunk b =
        if not (valid_block t b) then None
        else
          match device_read_retry t b 0 with
          | Ok (Blockdev.Data s) -> Some s
          | Ok _ | Error _ -> None
      in
      let read_table blocks =
        let rec go acc = function
          | [] -> Some (String.concat "" (List.rev acc))
          | b :: rest -> (
            match read_chunk b with
            | Some s -> go (s :: acc) rest
            | None -> None)
        in
        go [] blocks
      in
      let primary = resolve_index read_table sb.sb_depth sb.sb_table in
      let mirror = resolve_index read_table sb.sb_depth sb.sb_table_mirror in
      (* Each copy keeps every block it occupies, index levels included. *)
      let owned named = function
        | Some (leaves, index) -> leaves @ index
        | None -> named
      in
      t.gentable_blocks <- owned sb.sb_table primary;
      t.gentable_mirror_blocks <- owned sb.sb_table_mirror mirror;
      let checked = function
        | Some (leaves, _) -> (
          match read_table leaves with
          | Some s when hash_string s = sb.sb_table_csum -> Some s
          | Some _ | None -> None)
        | None -> None
      in
      let table =
        match checked primary with
        | Some s -> Some s
        | None -> (
          match checked mirror with
          | Some s ->
            (* The mirror survived; heal the primary copy in place. *)
            let leaves = match primary with Some (l, _) -> l | None -> [] in
            (try
               List.iter2
                 (fun b c -> Devarray.write t.dev b (Blockdev.Data c))
                 leaves (chunk_string s)
             with Fault.Io_error _ | Invalid_argument _ -> ());
            t.repair_log <- List.map (fun b -> (b, Mirror)) leaves @ t.repair_log;
            t.io.repaired_from_mirror <- t.io.repaired_from_mirror + List.length leaves;
            Some s
          | None -> None)
      in
      match table with
      | None -> Error (Bad_generation_table "table unreadable in every copy")
      | Some data -> (
        match decode_gentable t data with
        | exception Serial.Corrupt msg -> Error (Bad_generation_table msg)
        | gens ->
          t.gens <- gens;
          Ok t)
    end
  in
  let rec try_all last_err = function
    | [] -> (
      match last_err with
      | Some e -> Error e
      | None -> Error No_superblock)
    | sb :: rest -> (
      match try_candidate sb with
      | Ok t ->
        rebuild t;
        t.bbox_seq <- scan_bbox_seq t;
        Btree.begin_epoch t.tree t.next_gen;
        Ok t
      | Error e -> try_all (Some e) rest)
  in
  try_all None candidates

let open_exn ~dev =
  match open_ ~dev with Ok t -> t | Error e -> raise (Fail e)

(* --- introspection --------------------------------------------------- *)

type stats = {
  live_blocks : int;
  dedup_entries : int;
  dedup_hits : int;
  dedup_misses : int;
  dedup_bytes_saved : int;
  committed_generations : int;
}

let stats t =
  {
    live_blocks = Alloc.live_blocks t.alloc;
    dedup_entries = Alloc.dedup_entries t.alloc;
    dedup_hits = Alloc.dedup_hits t.alloc;
    dedup_misses = Alloc.dedup_misses t.alloc;
    dedup_bytes_saved = Alloc.dedup_bytes_saved t.alloc;
    committed_generations = Gens.cardinal t.gens;
  }

let capacity_blocks t = Devarray.capacity_blocks t.dev

(* --- provenance inspection ------------------------------------------- *)

let gen_provenance t g =
  match (Gens.find_opt g t.gens, t.open_gen) with
  | Some e, _ -> Some e.prov
  | None, Some (og, _, p) when og = g -> Some p
  | None, _ -> None

(* Blocks reachable from a generation root, split into tree nodes and
   data blocks. Reads go through the verifying/self-repairing path, so
   the walk works identically on a live store and on one just reopened
   from disk (the fsck-style offline path). *)
let reachable_blocks t root =
  let meta = Hashtbl.create 256 in
  let data = Hashtbl.create 1024 in
  walk_tree t root ~visit:(fun ~node b ->
      if not node then (Hashtbl.replace data b (); false)
      else if Hashtbl.mem meta b then false
      else (Hashtbl.replace meta b (); true));
  (meta, data)

let kind_of_key k = Int64.to_int (Int64.rem (Int64.div k 0x1_0000_0000L) 4L)
let oid_of_key k = Int64.to_int (Int64.div k 0x4_0000_0000L)
let index_of_key k = Int64.to_int (Int64.logand k 0xFFFF_FFFFL)

type gen_report = {
  r_gen : gen;
  r_meta_blocks : int;
  r_data_blocks : int;
  r_mirror_blocks : int;
  r_record_entries : int;
  r_page_entries : int;
  r_blob_entries : int;
  r_record_bytes : int;
  r_logical_bytes : int;
  r_exclusive_blocks : int;
  r_shared_blocks : int;
}

let gen_report t g =
  match gen_root t g with
  | None -> None
  | Some root ->
    let meta, data = reachable_blocks t root in
    let record_entries = ref 0 in
    let page_entries = ref 0 in
    let blob_entries = ref 0 in
    let record_bytes = ref 0 in
    Btree.fold_range t.tree ~root ~lo:Int64.min_int ~hi:Int64.max_int ~init:()
      ~f:(fun () k v ->
        match (v, kind_of_key k) with
        | Btree.Imm len, 0 when index_of_key k = 0 ->
          incr record_entries;
          record_bytes := !record_bytes + Int64.to_int len
        | Btree.Ptr _, 2 -> incr page_entries
        | Btree.Ptr _, 3 -> incr blob_entries
        | _ -> ());
    let mirror_count set =
      Hashtbl.fold
        (fun b () acc -> if Alloc.mirror t.alloc b <> None then acc + 1 else acc)
        set 0
    in
    (* Blocks also reachable from any other committed generation are
       shared (the COW B+tree structure sharing plus dedup). *)
    let others = Hashtbl.create 4096 in
    Gens.iter
      (fun g' e ->
        if g' <> g then begin
          let m, d = reachable_blocks t e.root in
          Hashtbl.iter (fun b () -> Hashtbl.replace others b ()) m;
          Hashtbl.iter (fun b () -> Hashtbl.replace others b ()) d
        end)
      t.gens;
    let classify set (excl, shared) =
      Hashtbl.fold
        (fun b () (e, s) ->
          if Hashtbl.mem others b then (e, s + 1) else (e + 1, s))
        set (excl, shared)
    in
    let excl, shared = classify data (classify meta (0, 0)) in
    Some
      {
        r_gen = g;
        r_meta_blocks = Hashtbl.length meta;
        r_data_blocks = Hashtbl.length data;
        r_mirror_blocks = mirror_count meta + mirror_count data;
        r_record_entries = !record_entries;
        r_page_entries = !page_entries;
        r_blob_entries = !blob_entries;
        r_record_bytes = !record_bytes;
        r_logical_bytes = (!page_entries * Blockdev.block_size) + !record_bytes;
        r_exclusive_blocks = excl;
        r_shared_blocks = shared;
      }

type crosscheck = {
  x_reachable_blocks : int;
  x_live_blocks : int;
  x_within_1pct : bool;
}

(* The attribution-sum acceptance gate: every allocated block must be
   accounted for by walking the committed generations (tree nodes, data
   blocks, their mirrors) plus the commit machinery's own blocks (both
   generation-table copies and their mirrors). *)
let crosscheck t =
  require_closed t;
  let seen = Hashtbl.create 4096 in
  let add b = Hashtbl.replace seen b () in
  List.iter (List.iter add) (table_blocks t);
  Gens.iter
    (fun _ e ->
      let m, d = reachable_blocks t e.root in
      let with_mirrors tbl =
        Hashtbl.iter
          (fun b () ->
            add b;
            Option.iter add (Alloc.mirror t.alloc b))
          tbl
      in
      with_mirrors m;
      with_mirrors d)
    t.gens;
  let reachable = Hashtbl.length seen in
  let live = Alloc.live_blocks t.alloc in
  let within = abs (reachable - live) * 100 <= max live reachable in
  { x_reachable_blocks = reachable; x_live_blocks = live; x_within_1pct = within }

type oid_delta = {
  d_oid : int;
  d_pages_added : int;
  d_pages_removed : int;
  d_pages_changed : int;
}

type gen_diff = {
  df_from : gen;
  df_to : gen;
  df_oids_added : int list;
  df_oids_removed : int list;
  df_changed : oid_delta list;
  df_pages_added : int;
  df_pages_removed : int;
  df_pages_changed : int;
  df_bytes_delta : int;
  df_dedup_hits_delta : int;
  df_dedup_saved_delta : int;
}

(* Per-oid page-index -> block map of a generation. Under dedup,
   pointer equality is content equality, so comparing block pointers
   across generations detects changed pages without reading payloads;
   without dedup an unchanged page keeps its block (incremental
   checkpoints skip it), so the comparison still holds. *)
let page_map t root =
  let tbl = Hashtbl.create 64 in
  Btree.fold_range t.tree ~root ~lo:Int64.min_int ~hi:Int64.max_int ~init:()
    ~f:(fun () k v ->
      match v with
      | Btree.Ptr block when kind_of_key k = 2 ->
        let oid = oid_of_key k in
        let m =
          match Hashtbl.find_opt tbl oid with
          | Some m -> m
          | None ->
            let m = Hashtbl.create 64 in
            Hashtbl.replace tbl oid m;
            m
        in
        Hashtbl.replace m (index_of_key k) block
      | _ -> ());
  tbl

let diff t ~from_gen ~to_gen =
  let root g =
    match gen_root t g with
    | Some r -> r
    | None -> invalid_arg (Printf.sprintf "Store.diff: unknown generation %d" g)
  in
  let ma = page_map t (root from_gen) in
  let mb = page_map t (root to_gen) in
  let oids_added =
    Hashtbl.fold (fun o _ acc -> if Hashtbl.mem ma o then acc else o :: acc) mb []
    |> List.sort Int.compare
  in
  let oids_removed =
    Hashtbl.fold (fun o _ acc -> if Hashtbl.mem mb o then acc else o :: acc) ma []
    |> List.sort Int.compare
  in
  let all_oids = Hashtbl.create 64 in
  Hashtbl.iter (fun o _ -> Hashtbl.replace all_oids o ()) ma;
  Hashtbl.iter (fun o _ -> Hashtbl.replace all_oids o ()) mb;
  let empty = Hashtbl.create 1 in
  let changed =
    Hashtbl.fold
      (fun o () acc ->
        let pa = Option.value ~default:empty (Hashtbl.find_opt ma o) in
        let pb = Option.value ~default:empty (Hashtbl.find_opt mb o) in
        let added = ref 0 and removed = ref 0 and chg = ref 0 in
        Hashtbl.iter
          (fun pindex block ->
            match Hashtbl.find_opt pa pindex with
            | None -> incr added
            | Some b when b <> block -> incr chg
            | Some _ -> ())
          pb;
        Hashtbl.iter
          (fun pindex _ -> if not (Hashtbl.mem pb pindex) then incr removed)
          pa;
        if !added = 0 && !removed = 0 && !chg = 0 then acc
        else
          { d_oid = o; d_pages_added = !added; d_pages_removed = !removed;
            d_pages_changed = !chg }
          :: acc)
      all_oids []
    |> List.sort (fun a b -> Int.compare a.d_oid b.d_oid)
  in
  let sum f = List.fold_left (fun acc d -> acc + f d) 0 changed in
  let pages_added = sum (fun d -> d.d_pages_added) in
  let pages_removed = sum (fun d -> d.d_pages_removed) in
  let prov_field f g =
    match gen_provenance t g with Some p -> f p | None -> 0
  in
  {
    df_from = from_gen;
    df_to = to_gen;
    df_oids_added = oids_added;
    df_oids_removed = oids_removed;
    df_changed = changed;
    df_pages_added = pages_added;
    df_pages_removed = pages_removed;
    df_pages_changed = sum (fun d -> d.d_pages_changed);
    df_bytes_delta = (pages_added - pages_removed) * Blockdev.block_size;
    df_dedup_hits_delta =
      prov_field (fun p -> p.pv_dedup_hits) to_gen
      - prov_field (fun p -> p.pv_dedup_hits) from_gen;
    df_dedup_saved_delta =
      prov_field (fun p -> p.pv_dedup_saved_bytes) to_gen
      - prov_field (fun p -> p.pv_dedup_saved_bytes) from_gen;
  }

let io_stats t =
  { read_retries = t.io.read_retries;
    checksum_failures = t.io.checksum_failures;
    repaired_from_mirror = t.io.repaired_from_mirror;
    repaired_from_dedup = t.io.repaired_from_dedup;
    lost_blocks = t.io.lost_blocks }

(* --- fsck / scrub ----------------------------------------------------- *)

type fsck_report = {
  problems : string list;
  healed : (int * repair_origin) list;
  lost : (gen * string) list;
  scanned_blocks : int;
}

let fsck_ok r = r.problems = [] && r.lost = []

let scrub_pass t scanned =
  (* Read every reachable block through the verifying, self-repairing
     path with cold caches, so latent sectors and rotted content are
     found and healed now rather than at the next restore. A
     generation with an unrepairable block is dropped and reported
     lost. The whole scan is background I/O. *)
  let saved_cls = t.read_cls in
  t.read_cls <- Iosched.Background;
  Fun.protect ~finally:(fun () -> t.read_cls <- saved_cls) @@ fun () ->
  Btree.reset_cache t.tree;
  let dropped = ref false in
  let scrub_gen root =
    let visited = Hashtbl.create 256 in
    walk_tree t root ~visit:(fun ~node b ->
        let first = not (Hashtbl.mem visited b) in
        if first then begin
          Hashtbl.replace visited b ();
          incr scanned;
          if not node then ignore (verified_read t b)
        end;
        first)
  in
  iter_gens_or_drop t scrub_gen ~drop:(fun g reason ->
      quarantine t g reason;
      dropped := true);
  if !dropped then begin
    (* Losing a generation frees blocks; recompute counts and persist
       the shrunken table so the loss is visible after the next open. *)
    rebuild t;
    settle_durable t (write_superblock t)
  end

let fsck ?(scrub = false) t =
  require_closed t;
  let scanned = ref 0 in
  if scrub then scrub_pass t scanned;
  let problems = ref [] in
  let problem fmt = Format.kasprintf (fun s -> problems := s :: !problems) fmt in
  (* Count reachable edges per block (generation roots, tree edges,
     value pointers, generation-table blocks, mirror-table entries). *)
  let edges : (int, int) Hashtbl.t = Hashtbl.create 4096 in
  let edge b = Hashtbl.replace edges b (1 + Option.value ~default:0 (Hashtbl.find_opt edges b)) in
  List.iter (List.iter edge) (table_blocks t);
  Alloc.iter_mirrors t.alloc (fun primary m ->
      edge m;
      if Alloc.refcount t.alloc m = 0 then
        problem "mirror %d of block %d is unallocated" m primary);
  let visited = Hashtbl.create 4096 in
  let visit ~node block =
    edge block;
    let unallocated = Alloc.refcount t.alloc block = 0 in
    if not node then begin
      if unallocated then problem "data block %d is unallocated" block;
      false
    end
    else if Hashtbl.mem visited block then false
    else begin
      Hashtbl.replace visited block ();
      if unallocated then problem "reachable block %d is unallocated" block;
      true
    end
  in
  let on_error block = function
    | Serial.Corrupt msg -> problem "node %d corrupt: %s" block msg
    | Fail e -> problem "node %d: %s" block (describe_error e)
    | e -> raise e
  in
  Gens.iter (fun _ e -> walk_tree ~on_error t e.root ~visit) t.gens;
  (* Reference counts must equal reachable edges. *)
  Hashtbl.iter
    (fun block n ->
      let rc = Alloc.refcount t.alloc block in
      if rc <> n then problem "block %d: refcount %d, reachable edges %d" block rc n)
    edges;
  (* The oid listing and the records must read back whole (an oid may
     hold only pages, which is fine; a corrupt or truncated record or
     tree node is not). *)
  let readable what f =
    try f () with
    | Serial.Corrupt msg -> problem "%s: %s" what msg
    | Fail e -> problem "%s: %s" what (describe_error e)
  in
  Gens.iter
    (fun g _ ->
      readable (Printf.sprintf "generation %d" g) @@ fun () ->
      List.iter
        (fun oid ->
          readable (Printf.sprintf "generation %d oid %d" g oid) @@ fun () ->
          ignore (read_record t g ~oid))
        (oids t g))
    t.gens;
  let healed = List.rev t.repair_log in
  t.repair_log <- [];
  let lost = List.rev t.quarantined in
  t.quarantined <- [];
  { problems = List.rev !problems; healed; lost; scanned_blocks = !scanned }

let drop_caches t =
  require_closed t;
  Btree.drop_cache t.tree
