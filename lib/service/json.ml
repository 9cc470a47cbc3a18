(* Minimal JSON: a recursive-descent parser and a canonical printer.

   This is deliberately not a general-purpose JSON library: it supports
   exactly what the line protocol and the analyze encoder need, with a
   printing discipline chosen so that printing is a retraction of
   parsing - [to_string (parse (to_string v)) = to_string v]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* --- printing --- *)

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* Integral floats print as "x.0" (exact, and visibly a float);
   everything else prints with the fewest of 15, 16 or 17 significant
   digits that parse back to the same double (17 always do), so 1.364
   prints as "1.364", not "1.3640000000000001".  Non-finite floats have
   no JSON representation; they become null (the service never emits
   them). *)
let float_repr x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else
    let s15 = Printf.sprintf "%.15g" x in
    if float_of_string s15 = x then s15
    else
      let s16 = Printf.sprintf "%.16g" x in
      if float_of_string s16 = x then s16 else Printf.sprintf "%.17g" x

let rec to_buffer buf v =
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float x ->
      if not (Float.is_finite x) then Buffer.add_string buf "null"
      else Buffer.add_string buf (float_repr x)
  | String s -> escape_string buf s
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          to_buffer buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_string buf k;
          Buffer.add_char buf ':';
          to_buffer buf item)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  to_buffer buf v;
  Buffer.contents buf

(* --- parsing --- *)

type cursor = { text : string; mutable pos : int }

let peek c = if c.pos < String.length c.text then Some c.text.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance c;
      skip_ws c
  | _ -> ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> fail "expected '%c' at offset %d, found '%c'" ch c.pos x
  | None -> fail "expected '%c' at offset %d, found end of input" ch c.pos

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.text && String.sub c.text c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else fail "invalid literal at offset %d" c.pos

let add_utf8 buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

let parse_string_body c =
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail "unterminated string"
    | Some '"' -> advance c
    | Some '\\' -> (
        advance c;
        match peek c with
        | None -> fail "unterminated escape"
        | Some e ->
            advance c;
            (match e with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' ->
                if c.pos + 4 > String.length c.text then
                  fail "truncated \\u escape";
                let hex = String.sub c.text c.pos 4 in
                let code =
                  try int_of_string ("0x" ^ hex)
                  with _ -> fail "bad \\u escape %S" hex
                in
                c.pos <- c.pos + 4;
                add_utf8 buf code
            | e -> fail "bad escape '\\%c'" e);
            go ())
    | Some ch ->
        advance c;
        Buffer.add_char buf ch;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let is_float = ref false in
  let rec go () =
    match peek c with
    | Some ('0' .. '9' | '-' | '+') ->
        advance c;
        go ()
    | Some ('.' | 'e' | 'E') ->
        is_float := true;
        advance c;
        go ()
    | _ -> ()
  in
  go ();
  let s = String.sub c.text start (c.pos - start) in
  if !is_float then
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> fail "bad number %S" s
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt s with
        | Some f -> Float f
        | None -> fail "bad number %S" s)

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail "unexpected end of input"
  | Some 'n' -> literal c "null" Null
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some '"' ->
      advance c;
      String (parse_string_body c)
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some '[' ->
      advance c;
      skip_ws c;
      if peek c = Some ']' then begin
        advance c;
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              items (v :: acc)
          | Some ']' ->
              advance c;
              List.rev (v :: acc)
          | _ -> fail "expected ',' or ']' at offset %d" c.pos
        in
        List (items [])
      end
  | Some '{' ->
      advance c;
      skip_ws c;
      if peek c = Some '}' then begin
        advance c;
        Obj []
      end
      else begin
        let field () =
          skip_ws c;
          expect c '"';
          let k = parse_string_body c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          (k, v)
        in
        let rec fields acc =
          let kv = field () in
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              fields (kv :: acc)
          | Some '}' ->
              advance c;
              List.rev (kv :: acc)
          | _ -> fail "expected ',' or '}' at offset %d" c.pos
        in
        Obj (fields [])
      end
  | Some ch -> fail "unexpected character '%c' at offset %d" ch c.pos

let parse s =
  let c = { text = s; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> String.length s then fail "trailing input at offset %d" c.pos;
  v

(* --- accessors --- *)

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let string_field name v =
  match member name v with
  | Some (String s) -> Ok s
  | Some _ -> Error (Printf.sprintf "field %S must be a string" name)
  | None -> Error (Printf.sprintf "missing field %S" name)

let int_field name v =
  match member name v with
  | Some (Int i) -> Ok i
  | Some _ -> Error (Printf.sprintf "field %S must be an integer" name)
  | None -> Error (Printf.sprintf "missing field %S" name)

let opt_string_field name v =
  match member name v with
  | Some (String s) -> Ok (Some s)
  | Some Null | None -> Ok None
  | Some _ -> Error (Printf.sprintf "field %S must be a string" name)

let opt_int_field name v =
  match member name v with
  | Some (Int i) -> Ok (Some i)
  | Some Null | None -> Ok None
  | Some _ -> Error (Printf.sprintf "field %S must be an integer" name)

let opt_bool_field ?(default = false) name v =
  match member name v with
  | Some (Bool b) -> Ok b
  | Some Null | None -> Ok default
  | Some _ -> Error (Printf.sprintf "field %S must be a boolean" name)

let list_field name v =
  match member name v with
  | Some (List l) -> Ok l
  | Some _ -> Error (Printf.sprintf "field %S must be an array" name)
  | None -> Error (Printf.sprintf "missing field %S" name)
