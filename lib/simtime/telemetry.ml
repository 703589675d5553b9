(* One emission path for instrumented events. See telemetry.mli. *)

type t = { metrics : Metrics.t; spans : Span.t; probes : Probe.t }

let create ~metrics ~spans ~probes = { metrics; spans; probes }
let metrics t = t.metrics
let spans t = t.spans

let count t name = Metrics.incr (Metrics.counter t.metrics name)

let observe t name d = Metrics.observe_duration (Metrics.histogram t.metrics name) d

(* --- block devices --------------------------------------------------- *)

type dev = {
  d_name : string;
  d_spans : Span.t;
  d_probes : Probe.t;
  d_commands : Metrics.counter;
  d_blocks_read : Metrics.counter;
  d_blocks_written : Metrics.counter;
  d_xfer_us : Metrics.histogram;
}

let dev t name =
  let pre = "dev." ^ name ^ "." in
  let d_xfer_us = Metrics.histogram t.metrics (pre ^ "xfer_us") in
  let d_blocks_written = Metrics.counter t.metrics (pre ^ "blocks_written") in
  let d_blocks_read = Metrics.counter t.metrics (pre ^ "blocks_read") in
  let d_commands = Metrics.counter t.metrics (pre ^ "commands") in
  { d_name = name; d_spans = t.spans; d_probes = t.probes; d_commands;
    d_blocks_read; d_blocks_written; d_xfer_us }

let dev_io d ~op ~cls ~span ~commands ~blocks ~cost ~start_at ~end_at =
  Metrics.add d.d_commands commands;
  Metrics.add (match op with `Read -> d.d_blocks_read | `Write | `Oob -> d.d_blocks_written)
    blocks;
  Metrics.observe_duration d.d_xfer_us cost;
  if span then begin
    let name, attrs =
      match op with
      | `Read -> ("dev.read", [ ("blocks", string_of_int blocks); ("cls", cls) ])
      | `Write ->
        ( "dev.write",
          [ ("blocks", string_of_int blocks); ("extents", string_of_int commands);
            ("cls", cls) ] )
      | `Oob -> ("dev.oob", [ ("blocks", string_of_int blocks); ("cls", cls) ])
    in
    Span.record d.d_spans ~track:d.d_name ~name ~attrs ~start_at ~end_at ()
  end;
  if Probe.enabled d.d_probes Probe.Dev_io then
    Probe.fire d.d_probes Probe.Dev_io ~dev:d.d_name
      ~op:(match op with `Read -> "read" | `Write -> "write" | `Oob -> "oob")
      ~cls ~gen:(-1) ~pgid:(-1) ~us:(Duration.to_us cost) ~blocks

(* --- object store ---------------------------------------------------- *)

type store = {
  s_dev : string;
  s_track : string;
  s_spans : Span.t;
  s_probes : Probe.t;
  s_commits : Metrics.counter;
  s_records_put : Metrics.counter;
  s_pages_put : Metrics.counter;
  s_flush_us : Metrics.histogram;
}

let store t dev =
  let pre = "store." ^ dev ^ "." in
  let s_flush_us = Metrics.histogram t.metrics (pre ^ "flush_us") in
  let s_pages_put = Metrics.counter t.metrics (pre ^ "pages_put") in
  let s_records_put = Metrics.counter t.metrics (pre ^ "records_put") in
  let s_commits = Metrics.counter t.metrics (pre ^ "commits") in
  { s_dev = dev; s_track = "store." ^ dev; s_spans = t.spans; s_probes = t.probes;
    s_commits; s_records_put; s_pages_put; s_flush_us }

let store_put s ~records ~pages =
  Metrics.add s.s_records_put records;
  Metrics.add s.s_pages_put pages

let store_commit s ~gen ~started ~durable_at ~data_blocks =
  let took = Duration.sub durable_at started in
  Metrics.incr s.s_commits;
  Metrics.observe_duration s.s_flush_us took;
  Span.record s.s_spans ~track:s.s_track ~name:"store.flush"
    ~attrs:[ ("gen", string_of_int gen); ("data_blocks", string_of_int data_blocks) ]
    ~start_at:started ~end_at:durable_at ();
  if Probe.enabled s.s_probes Probe.Store_commit then
    Probe.fire s.s_probes Probe.Store_commit ~dev:s.s_dev ~op:"commit" ~gen
      ~pgid:(-1) ~us:(Duration.to_us took) ~blocks:data_blocks

let alloc_defer s ~op ~us ~blocks =
  if Probe.enabled s.s_probes Probe.Alloc_defer then
    Probe.fire s.s_probes Probe.Alloc_defer ~dev:s.s_dev ~op ~gen:(-1) ~pgid:(-1)
      ~us ~blocks

(* --- replication ----------------------------------------------------- *)

let repl_frame t ~op ~gen ~pgid ~bytes =
  if Probe.enabled t.probes Probe.Repl_msg then
    Probe.fire t.probes Probe.Repl_msg ~dev:"link" ~op ~gen ~pgid ~us:0.0
      ~blocks:bytes

let repl_ship t ~gen ~pgid ~corr ~mode ~attempts ~acked ~lag ~bytes ~start_at
    ~end_at =
  let rtt = Duration.sub end_at start_at in
  if acked then begin
    count t "repl.acked";
    observe t "repl.ack_rtt_us" rtt
  end
  else count t "repl.gave_up";
  Metrics.set_int (Metrics.gauge t.metrics "repl.lag") lag;
  if Probe.enabled t.probes Probe.Repl_msg then
    Probe.fire t.probes Probe.Repl_msg ~dev:"link" ~op:"ship" ~gen ~pgid
      ~us:(Duration.to_us rtt) ~blocks:bytes;
  Span.record t.spans ~track:"repl" ~name:"repl.ship"
    ~attrs:
      [ ("gen", string_of_int gen); ("corr", corr); ("mode", mode);
        ("attempts", string_of_int attempts);
        ("outcome", if acked then "acked" else "gave_up") ]
    ~start_at ~end_at ()

(* --- checkpoint pipeline --------------------------------------------- *)

let fire_phase t ~op ~gen ~pgid ~pages d =
  Probe.fire t.probes Probe.Ckpt_phase ~dev:"" ~op ~gen ~pgid
    ~us:(Duration.to_us d) ~blocks:pages

let ckpt_begin t ~pgid ~mode =
  Span.start t.spans "ckpt" ~attrs:[ ("pgid", string_of_int pgid); ("mode", mode) ]

let ckpt_recorder t s = observe t "ckpt.recorder_us" (Span.finish t.spans s)

let ckpt_captured t ~root ~gen ~pgid ~pages ~cow_breaks ~quiesce ~serialize
    ~cow_mark ~stop ~degraded =
  ignore
    (Span.finish t.spans root
       ~attrs:
         [ ("gen", string_of_int gen); ("pages", string_of_int pages);
           ("status", match degraded with None -> "ok" | Some r -> "degraded: " ^ r) ]);
  count t "ckpt.count";
  Metrics.add (Metrics.counter t.metrics "ckpt.pages_captured") pages;
  Metrics.add (Metrics.counter t.metrics "ckpt.cow_breaks") cow_breaks;
  observe t "ckpt.stop_us" stop;
  observe t "ckpt.quiesce_us" quiesce;
  observe t "ckpt.serialize_us" serialize;
  observe t "ckpt.cow_mark_us" cow_mark;
  if degraded <> None then count t "ckpt.degraded";
  if Probe.enabled t.probes Probe.Ckpt_phase then begin
    fire_phase t ~op:"quiesce" ~gen ~pgid ~pages quiesce;
    fire_phase t ~op:"serialize" ~gen ~pgid ~pages serialize;
    fire_phase t ~op:"cow_mark" ~gen ~pgid ~pages cow_mark;
    fire_phase t ~op:"stop" ~gen ~pgid ~pages stop
  end

let ckpt_flushed t ~gen ~pgid ~pages ~barrier_at ~flush_started ~durable_at =
  let flush = Duration.sub durable_at flush_started in
  observe t "ckpt.flush_us" flush;
  observe t "ckpt.durable_lag_us" (Duration.sub durable_at barrier_at);
  Span.record t.spans ~track:"ckpt.pipeline" ~name:"ckpt.flush"
    ~attrs:[ ("pgid", string_of_int pgid); ("gen", string_of_int gen) ]
    ~start_at:flush_started ~end_at:durable_at ();
  if Probe.enabled t.probes Probe.Ckpt_phase then
    fire_phase t ~op:"flush" ~gen ~pgid ~pages flush

let ckpt_backpressure t ~pgid ~start_at ~end_at =
  let wait = Duration.sub end_at start_at in
  if Duration.(wait > zero) then
    Span.record t.spans ~track:"ckpt.pipeline" ~name:"ckpt.backpressure"
      ~attrs:[ ("pgid", string_of_int pgid) ] ~start_at ~end_at ();
  observe t "ckpt.backpressure_us" wait

(* --- restore --------------------------------------------------------- *)

let restore_begin t ~gen ~pgid =
  Span.start t.spans "restore"
    ~attrs:[ ("gen", string_of_int gen); ("pgid", string_of_int pgid) ]

let restore_prefetch t ~pages ~start_at ~end_at ~read_time =
  Span.record t.spans ~name:"restore.prefetch"
    ~attrs:[ ("pages", string_of_int pages) ] ~start_at ~end_at ();
  observe t "restore.prefetch_us" read_time

let restore_done t ~root ~procs ~resident ~lazy_ ~objects ~bytes ~total ~metadata
    ~pagein =
  ignore (Span.finish t.spans root ~attrs:[ ("procs", string_of_int procs) ]);
  let add name n = Metrics.add (Metrics.counter t.metrics name) n in
  count t "restore.count";
  add "restore.pages_resident" resident;
  add "restore.pages_lazy" lazy_;
  add "restore.objects" objects;
  add "restore.bytes_read" bytes;
  observe t "restore.total_us" total;
  observe t "restore.metadata_us" metadata;
  observe t "restore.pagein_us" pagein
