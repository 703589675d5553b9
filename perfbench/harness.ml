(* Measurement plumbing shared by the workloads: host clocks and
   allocation counters, sample sets with the median/tail rule, seeded
   input streams, per-layer host accounting with optional spans, and
   the report printer. Nothing here touches the simulator. *)

let now_s = Unix.gettimeofday

(* Words allocated by this process so far (minor + direct major). *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* --- samples ----------------------------------------------------------- *)

module Sample = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 64 0.; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let count t = t.n
  let sum t = Array.fold_left ( +. ) 0. (Array.sub t.a 0 t.n)
  let mean t = if t.n = 0 then Float.nan else sum t /. float_of_int t.n

  let sorted t =
    let s = Array.sub t.a 0 t.n in
    Array.sort compare s;
    s

  (* Linear interpolation between order statistics. *)
  let quantile t q =
    if t.n = 0 then Float.nan
    else
      let s = sorted t in
      let pos = q *. float_of_int (t.n - 1) in
      let i = truncate pos in
      if i >= t.n - 1 then s.(t.n - 1)
      else s.(i) +. ((pos -. float_of_int i) *. (s.(i + 1) -. s.(i)))

  let median t = quantile t 0.5

  (* The highest of p99.9, p99 and p90 that leaves at least ten samples
     beyond it; the maximum when there are fewer than 100 samples. *)
  let tail t =
    let n = float_of_int t.n in
    match List.find_opt (fun (_, q) -> n *. (1. -. q) >= 10.) [ ("p99.9", 0.999); ("p99", 0.99); ("p90", 0.9) ] with
    | Some (label, q) -> (label, quantile t q)
    | None -> ("max", quantile t 1.0)

  (* The tail with its label and the sample count, as "p90 of 1000". *)
  let tail_note t = Printf.sprintf "%s of %d" (fst (tail t)) t.n
end

(* --- seeded input streams ------------------------------------------------ *)

(* SplitMix64. Every input the benchmark generates (reader page
   sequences, client bursts, store-leg contents, the schedule's phase
   and the per-epoch deltas) comes from a stream keyed by the --seed
   argument and a fixed stream number. The generator lives here, not in
   the library, so a change to the library's PRNG cannot change the
   benchmark's inputs. *)
module Rng = struct
  type t = { mutable s : int64 }

  let mix z =
    let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
    let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
    Int64.(logxor z (shift_right_logical z 31))

  let make ~seed ~stream =
    { s = mix (Int64.add (Int64.of_int seed) (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int (stream + 1)))) }

  let next64 t =
    t.s <- Int64.add t.s 0x9E3779B97F4A7C15L;
    mix t.s

  let float t = Int64.to_float (Int64.shift_right_logical (next64 t) 11) /. 9007199254740992.
  let int t n = min (n - 1) (int_of_float (float t *. float_of_int n))

  (* 80/20 skew: 80% of picks fall in the first fifth of [0, n). *)
  let skewed t n =
    let hot = max 1 (n / 5) in
    if float t < 0.8 then int t hot else hot + int t (max 1 (n - hot))
end

(* --- per-layer host accounting ------------------------------------------- *)

(* One accumulator per public call the benchmark times. Always on: two
   clock reads and a counter read per call. With tracing on, every call
   also leaves a host-time span in bench-side memory. *)
type layer = {
  l_name : string;
  mutable calls : int;
  mutable secs : float;
  mutable words : float;
}

type span = { sp_name : string; sp_t0 : float; sp_t1 : float; sp_words : float; sp_depth : int }

let tracing = ref false
let spans : span list ref = ref []
let depth = ref 0

let layer l_name = { l_name; calls = 0; secs = 0.; words = 0. }

(* Run [f], returning its result, the host seconds it took and the
   words it allocated. *)
let timed f =
  let w0 = alloc_words () and t0 = now_s () in
  let r = f () in
  (r, now_s () -. t0, alloc_words () -. w0)

let call l f =
  incr depth;
  let r, secs, words = Fun.protect ~finally:(fun () -> decr depth) (fun () -> timed f) in
  l.calls <- l.calls + 1;
  l.secs <- l.secs +. secs;
  l.words <- l.words +. words;
  if !tracing then begin
    let t1 = now_s () in
    spans := { sp_name = l.l_name; sp_t0 = t1 -. secs; sp_t1 = t1; sp_words = words; sp_depth = !depth } :: !spans
  end;
  r

(* Host seconds spent computing expected values and digests. The
   measured phase subtracts them, so host_s counts the simulator's
   work and not the benchmark's own checking. *)
let oracle_s = ref 0.

let oracle f =
  let r, secs, _ = timed f in
  oracle_s := !oracle_s +. secs;
  r

(* Chrome trace_event JSON of the recorded host spans. *)
let write_spans path =
  let oc = open_out path in
  output_string oc "{\"traceEvents\": [";
  let base = match List.rev !spans with s :: _ -> s.sp_t0 | [] -> 0. in
  List.iteri
    (fun i s ->
      if i > 0 then output_char oc ',';
      Printf.fprintf oc
        "\n {\"name\": %S, \"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"alloc_words\": %.0f}}"
        s.sp_name s.sp_depth ((s.sp_t0 -. base) *. 1e6) ((s.sp_t1 -. s.sp_t0) *. 1e6) s.sp_words)
    (List.rev !spans);
  output_string oc "\n]}\n";
  close_out oc

(* --- the report ------------------------------------------------------------ *)

type clock = Sim | Host | Count

type metric = { name : string; unit_ : string; clock : clock; value : float; note : string }

let metric ?(note = "") name unit_ clock value = { name; unit_; clock; value; note }

let clock_name = function Sim -> "simulated" | Host -> "host" | Count -> "-"

let print_table title ms =
  Printf.printf "\n%s\n" title;
  List.iter
    (fun m ->
      Printf.printf "  %-36s %16.4f %-8s %-9s %s\n" m.name m.value m.unit_ (clock_name m.clock) m.note)
    ms

let json_line ~correct ~attempted ~failed ms =
  let body =
    String.concat ", "
      (List.map (fun m -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name m.value m.unit_) ms)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct attempted
    failed body
