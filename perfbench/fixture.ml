(* The kvstore fixture every workload runs, and a side-effect-free
   oracle for its memory: page contents are read through the VM
   object's slots without faulting, touching heat or charging the
   simulated clock, so checking outputs never perturbs what is
   measured. *)

open Aurora_simtime
open Aurora_device
open Aurora_vm
open Aurora_proc
open Aurora_sls
open Aurora_apps

type t = {
  m : Machine.t;
  mutable p : Process.t;  (** the kvstore process (replaced by restores) *)
  cfg : Kvstore.config;
  g : Types.pgroup;
}

(* [bench/main.exe]'s Redis layout: a preloaded kvstore of [mib] MiB
   plus ~70 extra mappings, 30 descriptors and four threads. With
   [interval] omitted the group keeps the default 10 ms period (Table 3
   drives the scheduler directly, so it never fires); workloads that
   issue checkpoints themselves pass a period the run never reaches. *)
let create ?stripes ?interval ?(spec = Workload.write_heavy) ~mib () =
  let m = Machine.create ~storage_profile:Profile.optane_900p ?stripes () in
  let k = m.Machine.kernel in
  let c = Kernel.new_container k ~name:"redis" in
  let nkeys = mib * 1024 * 1024 / 8 in
  let cfg =
    { (Kvstore.default_config ~nkeys ()) with Kvstore.spec = spec ~nkeys; ops_per_step = 128; preload = true }
  in
  let p = Kvstore.spawn k ~container:c.Container.cid cfg in
  for i = 0 to 69 do
    ignore (Syscall.mmap_anon k p ~npages:(1 + (i mod 4)))
  done;
  Syscall.mkdir k p "/lib";
  for i = 0 to 29 do
    ignore (Syscall.open_file k p ~create:true (Printf.sprintf "/lib/lib%d.so" i))
  done;
  for _ = 1 to 3 do
    ignore (Process.add_thread p ~program:"aurora/kv-client")
  done;
  ignore (Scheduler.step_all k);
  let g = Machine.persist m ?interval (`Container c.Container.cid) in
  { m; p; cfg; g }

let npages t = Kvstore.npages t.cfg
let resident t = Vmmap.resident_pages t.p.Process.vm

let dirty_pages t =
  List.fold_left (fun acc obj -> acc + Vmobject.dirty_count obj) 0 (Vmmap.distinct_objects t.p.Process.vm)

(* Table 3's delta: run the kvstore until [target] pages are dirty. *)
let dirty_until t ~target =
  let k = t.m.Machine.kernel in
  let guard = ref 0 in
  while dirty_pages t < target && !guard < 400_000 do
    ignore (Scheduler.step_all k);
    incr guard
  done

(* --- the oracle ----------------------------------------------------------- *)

let content_at (p : Process.t) vpn =
  match Vmmap.entry_at p.Process.vm vpn with
  | None -> Content.zero
  | Some e -> (
    match Vmobject.resolve e.Vmmap.obj (e.Vmmap.obj_offset + vpn - e.Vmmap.start_vpn) with
    | Vmobject.Found { slot = Vmobject.Resident f; _ } -> f.Frame.content
    | Vmobject.Found { slot = Vmobject.Paged_out { content; _ }; _ } -> content
    | Vmobject.Absent -> Content.zero)

(* Content of data page [i] of a kvstore process's region. *)
let page (p : Process.t) i = content_at p (Kvstore.base_vpn p + i)

(* Order-sensitive digest of the whole data region of [p] (by default
   the fixture's kvstore). *)
let digest ?p t =
  let p = Option.value p ~default:t.p in
  let acc = ref 0L in
  for i = 0 to npages t - 1 do
    acc := Harness.Rng.mix (Int64.add !acc (Content.to_seed (page p i)))
  done;
  !acc

(* What [Syscall.mem_read] returns for a page holding [c]. *)
let read_value c ~offset = Int64.logxor (Content.hash c) (Int64.of_int offset)

(* The data region's VM object and the store oid its pages are saved
   under, from the attribution of the group's latest checkpoint. *)
let store_oid t =
  let obj = (Option.get (Vmmap.entry_at t.p.Process.vm (Kvstore.base_vpn t.p))).Vmmap.obj in
  match Machine.last_attribution t.g with
  | None -> failwith "no checkpoint attribution"
  | Some at -> (
    match List.find_opt (fun r -> r.Types.a_oid = Vmobject.oid obj) at.Types.at_objects with
    | Some r -> r.Types.a_store_oid
    | None -> failwith "data object missing from the checkpoint")

(* Store page index of data page [i]. *)
let pindex t i =
  let vpn = Kvstore.base_vpn t.p + i in
  let e = Option.get (Vmmap.entry_at t.p.Process.vm vpn) in
  e.Vmmap.obj_offset + vpn - e.Vmmap.start_vpn

let us = Duration.to_us
