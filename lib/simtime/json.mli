(** JSON string escaping, shared by every JSON writer in the tree.

    Quotes, backslashes and control bytes are escaped ([\n] and [\t]
    in their short forms, other bytes below 0x20 as [\u00XX]); every
    other byte, non-ASCII UTF-8 included, is copied through. *)

val add_escaped : Buffer.t -> string -> unit
(** Append the escaped body of a string literal (no quotes). *)

val quote : string -> string
(** A complete JSON string literal, quotes included. *)
