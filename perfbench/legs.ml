(* Layer-isolation legs, run only with --trace 1. Each drives one layer
   through its public API with no kernel around it, sized from the
   workload, so the host cost of that layer alone can be set beside the
   workload's host_s. *)

open Aurora_simtime
open Aurora_device
open Aurora_vm
open Aurora_objstore
open Harness

(* Object store on a bare device array: one full put of [pages] seeded
   pages, then [epochs] generations of [delta] fresh pages over that
   base (put, commit, gc of all but the two newest generations), then
   [reads] cold 80/20 reads of the newest generation, each checked
   against the seed written. Returns per-layer metrics and the number
   of mismatched reads. *)
let store ~rng ~stripes ~pages ~delta ~epochs ~reads =
  let clock = Clock.create () in
  let dev = Devarray.create ~stripes ~clock ~profile:Profile.optane_900p "leg" in
  let st = Store.format ~dev () in
  let oid = 1 in
  let seeds = Array.init pages (fun _ -> Rng.next64 rng) in
  ignore (Store.begin_generation st ());
  let (), put_s, put_w = timed (fun () -> Store.put_pages st ~oid (Array.mapi (fun i s -> (i, s)) seeds)) in
  ignore (Store.commit st ());
  Store.wait_all_durable st;
  let put = Sample.create () and commit = Sample.create () and gc = Sample.create () in
  for _ = 1 to epochs do
    ignore (Store.begin_generation st ());
    let chosen = Hashtbl.create delta in
    while Hashtbl.length chosen < delta do
      Hashtbl.replace chosen (Rng.int rng pages) ()
    done;
    let batch = Array.of_seq (Seq.map (fun i -> (i, Rng.next64 rng)) (Hashtbl.to_seq_keys chosen)) in
    Array.sort compare batch;
    Array.iter (fun (i, s) -> seeds.(i) <- s) batch;
    let (), t, _ = timed (fun () -> Store.put_pages st ~oid batch) in
    Sample.add put t;
    let _, t, _ = timed (fun () -> Store.commit st ()) in
    Sample.add commit t;
    Store.wait_all_durable st;
    let keep = match List.rev (Store.generations st) with a :: b :: _ -> [ a; b ] | l -> l in
    let _, t, _ = timed (fun () -> Store.gc st ~keep) in
    Sample.add gc t
  done;
  Store.drop_caches st;
  let gen = Option.get (Store.latest st) in
  let read = Sample.create () and bad = ref 0 in
  for _ = 1 to reads do
    let i = Rng.skewed rng pages in
    let got, t, _ = timed (fun () -> Store.read_page st gen ~oid ~pindex:i) in
    Sample.add read t;
    if got <> Some seeds.(i) then incr bad
  done;
  let ms s = 1000. *. Sample.median s in
  ( [
      metric "objstore.put_host_ns_per_page" "ns" Host (put_s *. 1e9 /. float_of_int pages);
      metric "objstore.put_alloc_words_per_page" "words" Host (put_w /. float_of_int pages);
      metric "objstore.epoch_put_host_ms" "ms" Host (ms put) ~note:(Printf.sprintf "%d-page delta" delta);
      metric "objstore.epoch_commit_host_ms" "ms" Host (ms commit);
      metric "objstore.epoch_gc_host_ms" "ms" Host (ms gc);
      metric "objstore.read_host_us" "us" Host (1e6 *. Sample.median read);
    ],
    !bad )

(* VM layer alone: first-touch writes of [pages] pages of one anonymous
   mapping, the heap they leave behind, and arming them all for a full
   checkpoint. *)
let vm ~rng ~pages =
  let clock = Clock.create () in
  let pool = Frame.create_pool () in
  let vm = Vmmap.create ~clock ~pool () in
  let e = Vmmap.map_anonymous vm ~npages:pages () in
  Gc.full_major ();
  let live0 = (Gc.stat ()).Gc.live_words in
  let (), write_s, _ =
    timed (fun () ->
        for i = 0 to pages - 1 do
          Vmmap.write vm ~vpn:(e.Vmmap.start_vpn + i) ~offset:0 ~value:(Rng.next64 rng)
        done)
  in
  Gc.full_major ();
  let live1 = (Gc.stat ()).Gc.live_words in
  let items, arm_s, _ = timed (fun () -> Vmobject.arm_for_checkpoint e.Vmmap.obj ~mode:`Full) in
  let armed = List.length items in
  List.iter (Vmobject.release_flush_item ~pool) items;
  let per n s = s *. 1e9 /. float_of_int n in
  [
    metric "vm.write_host_ns_per_page" "ns" Host (per pages write_s);
    metric "vm.arm_host_ns_per_page" "ns" Host (per armed arm_s);
    metric "vm.words_per_resident_page" "words" Host (float_of_int (live1 - live0) /. float_of_int pages);
  ]
