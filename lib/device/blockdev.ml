open Aurora_simtime

let block_size = 4096

type content =
  | Data of string
  | Seed of int64
  | Zero

type stats = {
  reads : int;
  writes : int;
  blocks_read : int;
  blocks_written : int;
  flushes : int;
}

(* A write the device cannot yet promise to keep: the block's content
   before it (its pre-image) and the write's completion time. *)
type undo = { blk : int; pre : content; done_at : Duration.t }

(* The content column holds per block an 8-byte seed, then a tag byte;
   [Data] payloads live in a side table. *)
let stride = 9
let tag_zero = 0
let tag_seed = 1
let tag_data = 2

type t = {
  name : string;
  clock : Clock.t;
  profile : Profile.t;
  capacity_blocks : int option;
  mutable cells : Bytes.t;             (* [stride] bytes per block, up to the highest written *)
  data : (int, string) Hashtbl.t;      (* payloads of the [Data] blocks *)
  mutable used : int;                  (* blocks not [Zero] *)
  log : undo Queue.t;                  (* unsettled writes, oldest first *)
  sched : Iosched.t;                   (* queue state; horizon = busy_until *)
  mutable st : stats;
  mutable faults : Fault.injector option;
  mutable tel : Telemetry.dev option;
}

let zero_stats = { reads = 0; writes = 0; blocks_read = 0; blocks_written = 0; flushes = 0 }

let create ?(sched = Iosched.Fifo) ?capacity_blocks ?faults ?tel ~clock ~profile name =
  { name; clock; profile; capacity_blocks; cells = Bytes.empty; data = Hashtbl.create 64;
    used = 0; log = Queue.create (); sched = Iosched.create sched; st = zero_stats;
    faults; tel = Option.map (fun tel -> Telemetry.dev tel name) tel }

let set_observability t ?tel () =
  t.tel <- Option.map (fun tel -> Telemetry.dev tel t.name) tel

(* The one emission site of every transfer. *)
let note_io t ~op ~cls ~span ~commands ~blocks ~cost ~start_at ~end_at =
  match t.tel with
  | None -> ()
  | Some d ->
    Telemetry.dev_io d ~op ~cls:(Iosched.cls_name cls) ~span ~commands ~blocks ~cost
      ~start_at ~end_at

let profile t = t.profile
let clock t = t.clock
let capacity_blocks t = t.capacity_blocks
let busy_until t = Iosched.horizon t.sched
let sched_stats t = Iosched.stats t.sched
let faults t = t.faults
let set_faults t inj = t.faults <- inj

let check_index t i =
  if i < 0 then invalid_arg "Blockdev: negative block index";
  match t.capacity_blocks with
  | Some cap when i >= cap ->
    invalid_arg (Printf.sprintf "Blockdev %s: block %d beyond capacity %d" t.name i cap)
  | _ -> ()

let tag t i =
  if stride * i < Bytes.length t.cells then Bytes.get_uint8 t.cells ((stride * i) + 8)
  else tag_zero

let get t i =
  check_index t i;
  let tg = tag t i in
  if tg = tag_seed then Seed (Bytes.get_int64_le t.cells (stride * i))
  else if tg = tag_data then Data (Hashtbl.find t.data i)
  else Zero

(* Replace block [i]'s content, doubling the column to cover it. *)
let set t i c =
  let old = tag t i in
  let tg = match c with Zero -> tag_zero | Seed _ -> tag_seed | Data _ -> tag_data in
  if old = tag_data then Hashtbl.remove t.data i;
  if tg <> tag_zero || old <> tag_zero then begin
    let len = Bytes.length t.cells in
    if stride * i >= len then
      t.cells <- Bytes.cat t.cells (Bytes.make (max (stride * (i + 1)) (2 * len) - len) '\000');
    (match c with
     | Seed s -> Bytes.set_int64_le t.cells (stride * i) s
     | Data s -> Hashtbl.replace t.data i s
     | Zero -> ());
    Bytes.set_uint8 t.cells ((stride * i) + 8) tg;
    t.used <- t.used + Bool.to_int (old = tag_zero) - Bool.to_int (tg = tag_zero)
  end

(* Charge a synchronous command: the device may still be draining its
   queue, so completion is max(now, busy_until) + cost. *)
let charge_sync t ~cls ~op ~blocks =
  let cost = Profile.transfer_cost t.profile ~op ~bytes:(blocks * block_size) in
  let start_at, completion =
    Iosched.schedule t.sched ~now:(Clock.now t.clock) ~cls ~cost ~blocks
  in
  note_io t ~op:(op :> [ `Read | `Write | `Oob ]) ~cls ~span:false ~commands:1 ~blocks
    ~cost ~start_at ~end_at:completion;
  Clock.advance_to t.clock completion

(* The command's time is charged before the fault surfaces: a failed
   read costs as much as a successful one. *)
let inject_read_fault t i =
  match t.faults with
  | None -> ()
  | Some inj ->
    if Fault.is_dropped inj then raise (Fault.Io_error (Fault.Dropped { dev = t.name }));
    if Fault.draw_transient_read inj then
      raise (Fault.Io_error (Fault.Transient { dev = t.name; op = `Read; phys = i }));
    if Fault.is_latent inj i then begin
      Fault.note_latent inj;
      raise (Fault.Io_error (Fault.Latent { dev = t.name; phys = i }))
    end

let read ?(cls = Iosched.Foreground) t i =
  charge_sync t ~cls ~op:`Read ~blocks:1;
  t.st <- { t.st with reads = t.st.reads + 1; blocks_read = t.st.blocks_read + 1 };
  inject_read_fault t i;
  get t i

let peek t i = get t i

(* Batch reads are best-effort DMA: a dropped device or latent sector
   yields [Zero] for the affected blocks instead of failing the whole
   transfer (and transient errors are not injected per block). Callers
   that need certainty — the store — verify each payload against its
   checksum and re-issue failed blocks as single reads, which do
   surface faults. *)
let batch_content t i =
  match t.faults with
  | None -> get t i
  | Some inj ->
    if Fault.is_dropped inj then Zero
    else if Fault.is_latent inj i then begin
      Fault.note_latent inj;
      Zero
    end
    else get t i

let read_many_async ?(cls = Iosched.Foreground) t indices =
  let n = List.length indices in
  let completion =
    if n = 0 then Duration.max (Clock.now t.clock) (busy_until t)
    else begin
      let cost = Profile.transfer_cost t.profile ~op:`Read ~bytes:(n * block_size) in
      let start, completion =
        Iosched.schedule t.sched ~now:(Clock.now t.clock) ~cls ~cost ~blocks:n
      in
      t.st <- { t.st with reads = t.st.reads + 1; blocks_read = t.st.blocks_read + n };
      note_io t ~op:`Read ~cls ~span:true ~commands:1 ~blocks:n ~cost ~start_at:start
        ~end_at:completion;
      completion
    end
  in
  (List.map (fun i -> batch_content t i) indices, completion)

(* A write is durable once it has completed on a power-loss-protected
   cache; on a volatile cache only {!flush} makes it so. *)
let durable t e =
  (not t.profile.Profile.volatile_cache) && Duration.(e.done_at <= Clock.now t.clock)

(* Forget the oldest log entries while they are durable. Nothing a
   crash keeps depends on it: it only bounds the log. *)
let settle t =
  while (not (Queue.is_empty t.log)) && durable t (Queue.peek t.log) do
    ignore (Queue.take t.log)
  done

(* Every write path lands its blocks here: the content is visible at
   once and the pre-image is logged until the write is durable. *)
let store t ~done_at writes =
  List.iter
    (fun (i, c) ->
      (match c with
       | Data s when String.length s > block_size ->
         invalid_arg "Blockdev.write: content larger than a block"
       | Data _ | Seed _ | Zero -> ());
      Queue.push { blk = i; pre = get t i; done_at } t.log;
      set t i c)
    writes;
  settle t

let corrupt_content inj = function
  | Data s when String.length s > 0 ->
    let b = Bytes.of_string s in
    let pos = Fault.pick inj (Bytes.length b) in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl Fault.pick inj 8)));
    Data (Bytes.to_string b)
  | Data _ -> Data "\x01"
  | Seed s -> Seed (Int64.logxor s (Int64.shift_left 1L (Fault.pick inj 63)))
  | Zero -> Seed 0x00DEAD_BEEFL

let max_write_retries = 4

(* Apply the fault model to a write submission. Transient write errors
   are retried by the device controller with exponential backoff — the
   returned extra cost is added to the transfer and so shows up in
   simulated time; retries exhausted raises. A write that lands clears
   any latent error on its sector (the drive remaps it), which is what
   makes read-repair-by-rewrite actually heal. Silent corruption
   replaces the stored payload; only an end-to-end checksum can tell. *)
let apply_write_faults t writes =
  match t.faults with
  | None -> (writes, Duration.zero)
  | Some inj ->
    if Fault.is_dropped inj then raise (Fault.Io_error (Fault.Dropped { dev = t.name }));
    let retry_cost = ref Duration.zero in
    let writes =
      List.map
        (fun (i, c) ->
          let rec attempt n =
            if Fault.draw_transient_write inj then begin
              if n >= max_write_retries then
                raise
                  (Fault.Io_error (Fault.Transient { dev = t.name; op = `Write; phys = i }));
              retry_cost :=
                Duration.add !retry_cost
                  (Duration.scale t.profile.Profile.write_latency (1 lsl n));
              attempt (n + 1)
            end
          in
          attempt 0;
          Fault.clear_latent inj i;
          if Fault.draw_corruption inj then (i, corrupt_content inj c) else (i, c))
        writes
    in
    (writes, !retry_cost)

let write_many ?(cls = Iosched.Foreground) t writes =
  let writes, retry_cost = apply_write_faults t writes in
  let n = List.length writes in
  if n > 0 then charge_sync t ~cls ~op:`Write ~blocks:n;
  if Duration.(retry_cost > zero) then begin
    Iosched.extend t.sched retry_cost;
    (match Iosched.config t.sched with
     | Iosched.Fifo -> Clock.advance_to t.clock (busy_until t)
     | Iosched.Wdrr _ ->
       (* The retried command may have been served from reserved slack
          ahead of the queue tail; the caller still waits out the
          retries, but not the whole bulk horizon. *)
       Clock.advance t.clock retry_cost)
  end;
  t.st <- { t.st with writes = t.st.writes + 1; blocks_written = t.st.blocks_written + n };
  store t ~done_at:(Clock.now t.clock) writes

let write ?cls t i c = write_many ?cls t [ (i, c) ]

(* Queue one transfer per extent (latency charged per extent, bandwidth
   per block); the whole submission completes — and, on non-volatile
   caches, becomes durable — at the time the last extent drains. *)
let write_extents ?not_before ?(cls = Iosched.Flush) t extents =
  let extents = List.filter (fun e -> e <> []) extents in
  let extents, retry_cost =
    if t.faults = None then (extents, Duration.zero)
    else begin
      let total = ref Duration.zero in
      let extents =
        List.map
          (fun e ->
            let e', c = apply_write_faults t e in
            total := Duration.add !total c;
            e')
          extents
      in
      (extents, !total)
    end
  in
  let nblocks = List.fold_left (fun acc e -> acc + List.length e) 0 extents
  and nextents = List.length extents in
  if nextents = 0 then begin
    let start = Duration.max (Clock.now t.clock) (busy_until t) in
    match not_before with
    | Some at -> Duration.max start at
    | None -> start
  end
  else begin
    let cost =
      List.fold_left
        (fun acc e ->
          Duration.add acc
            (Profile.transfer_cost t.profile ~op:`Write
               ~bytes:(List.length e * block_size)))
        (* Controller-internal write retries extend the transfer. *)
        retry_cost extents
    in
    let start, completion =
      Iosched.schedule t.sched ~now:(Clock.now t.clock) ?not_before ~cls ~cost
        ~blocks:nblocks
    in
    t.st <- { t.st with writes = t.st.writes + nextents;
                        blocks_written = t.st.blocks_written + nblocks };
    note_io t ~op:`Write ~cls ~span:true ~commands:nextents ~blocks:nblocks ~cost
      ~start_at:start ~end_at:completion;
    (* Content is visible immediately (the store serializes access);
       a crash before completion drops it. *)
    List.iter (store t ~done_at:completion) extents;
    completion
  end

let write_async ?not_before ?cls t writes = write_extents ?not_before ?cls t [ writes ]

(* A small control write on its own submission queue: charged from the
   current instant instead of behind queued data transfers — modeling a
   separate NVMe queue pair for out-of-band metadata (the store's black
   box). It does not extend [busy_until], so a crash can find it
   durable while an earlier, larger data submission is still in flight.
   Crash and durability semantics are otherwise write_async's. *)
let write_oob t writes =
  let writes, retry_cost = apply_write_faults t writes in
  let n = List.length writes in
  if n = 0 then Clock.now t.clock
  else begin
    let start = Clock.now t.clock in
    let cost =
      Duration.add retry_cost
        (Profile.transfer_cost t.profile ~op:`Write ~bytes:(n * block_size))
    in
    let completion = Duration.add start cost in
    (* Timing stays out-of-band (its own queue pair, charged from now),
       but the traffic is accounted to the Background class. *)
    Iosched.note_unscheduled t.sched ~cls:Iosched.Background ~cost ~blocks:n;
    t.st <- { t.st with writes = t.st.writes + 1;
                        blocks_written = t.st.blocks_written + n };
    (* OOB writes get their own span: the critical-path analyzer must
       see black-box traffic overlapping the flush window to blame it. *)
    note_io t ~op:`Oob ~cls:Iosched.Background ~span:true ~commands:1 ~blocks:n ~cost
      ~start_at:start ~end_at:completion;
    store t ~done_at:completion writes;
    completion
  end

let await t completion =
  Clock.advance_to t.clock completion;
  settle t

let flush t =
  Clock.advance_to t.clock (busy_until t);
  Clock.advance t.clock t.profile.Profile.flush_latency;
  t.st <- { t.st with flushes = t.st.flushes + 1 };
  Queue.clear t.log

(* Undo, newest first, every write that is not durable, unless a newer
   durable write to the same block supersedes it. *)
let crash t =
  settle t;
  let kept = Hashtbl.create 16 in
  List.iter
    (fun e ->
      if durable t e then Hashtbl.replace kept e.blk ()
      else if not (Hashtbl.mem kept e.blk) then set t e.blk e.pre)
    (Queue.fold (fun newer e -> e :: newer) [] t.log);
  Queue.clear t.log;
  Iosched.reset_to t.sched (Clock.now t.clock)

let stats t = t.st
let reset_stats t = t.st <- zero_stats

let used_blocks t = t.used
