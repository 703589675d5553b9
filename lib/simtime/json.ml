(* JSON string escaping. See json.mli. *)

let add_escaped b s =
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let quote s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  add_escaped b s;
  Buffer.add_char b '"';
  Buffer.contents b
