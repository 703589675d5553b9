type victim = { obj : Vmobject.t; pindex : int; frame : Frame.t }

type t = { mutable hand : int }

let create () = { hand = 0 }

(* Resident, evictable (unshared) pages of the objects, in a stable
   order: (object id, page index). *)
let resident_pages objects =
  List.fold_left
    (fun acc obj ->
      Vmobject.fold_pages obj ~init:acc ~f:(fun acc pindex -> function
        | Vmobject.Resident frame -> (obj, pindex, frame) :: acc
        | Vmobject.Paged_out _ -> acc))
    [] objects
  |> List.rev |> Array.of_list

let sweep t ~objects ~want =
  if want < 0 then invalid_arg "Clockalg.sweep: negative want";
  let pages = resident_pages objects in
  let n = Array.length pages in
  if n = 0 || want = 0 then []
  else begin
    let victims = ref [] in
    let found = ref 0 in
    let steps = ref 0 in
    (* Two revolutions: the first clears accessed bits, the second can
       then evict pages untouched since. *)
    while !found < want && !steps < 2 * n do
      let obj, pindex, frame = pages.(t.hand mod n) in
      t.hand <- t.hand + 1;
      incr steps;
      if frame.Frame.refcount = 1 then begin
        if frame.Frame.accessed then frame.Frame.accessed <- false
        else begin
          victims := { obj; pindex; frame } :: !victims;
          incr found
        end
      end
    done;
    List.rev !victims
  end

let age ~objects = List.iter Vmobject.age_heat objects
