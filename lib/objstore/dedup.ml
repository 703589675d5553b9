type t = {
  by_hash : (int64, int) Hashtbl.t;
  by_block : (int, int64) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable bytes_saved : int;
}

let create ~alloc =
  let t = { by_hash = Hashtbl.create 4096; by_block = Hashtbl.create 4096;
            hits = 0; misses = 0; bytes_saved = 0 } in
  Alloc.add_on_free alloc (fun block ->
      match Hashtbl.find_opt t.by_block block with
      | Some hash ->
        Hashtbl.remove t.by_block block;
        Hashtbl.remove t.by_hash hash
      | None -> ());
  t

let peek t ~hash = Hashtbl.find_opt t.by_hash hash

let find t ~hash =
  match Hashtbl.find_opt t.by_hash hash with
  | Some block ->
    t.hits <- t.hits + 1;
    Some block
  | None ->
    t.misses <- t.misses + 1;
    None

let add t ~hash ~block =
  (match Hashtbl.find_opt t.by_hash hash with
   | Some existing when existing <> block ->
     invalid_arg "Dedup.add: hash already mapped to a different block"
   | Some _ | None -> ());
  Hashtbl.replace t.by_hash hash block;
  Hashtbl.replace t.by_block block hash

let entries t = Hashtbl.length t.by_hash
let hits t = t.hits
let misses t = t.misses
let bytes_saved t = t.bytes_saved

let note_saved t ~bytes =
  if bytes < 0 then invalid_arg "Dedup.note_saved: negative size";
  t.bytes_saved <- t.bytes_saved + bytes

let reset t =
  Hashtbl.reset t.by_hash;
  Hashtbl.reset t.by_block
