type t = Value.t array

let of_list = Array.of_list
let of_array = Array.copy
let to_list = Array.to_list
let arity = Array.length
let get t i = t.(i)

let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i =
      if i = la then 0
      else begin
        let c = Value.compare a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
      end
    in
    go 0
  end

let equal a b = compare a b = 0

let hash t = Hashtbl.hash (Array.map Value.hash t)

let append a b = Array.append a b

let project positions t = Array.map (fun i -> t.(i)) positions

let matches_schema schema t =
  Schema.arity schema = Array.length t
  && Array.for_all
       (fun i -> Value.ty_equal (Schema.attr_at schema i).Schema.ty (Value.ty_of t.(i)))
       (Array.init (Array.length t) (fun i -> i))

let encode t =
  let buf = Buffer.create 32 in
  Buffer.add_string buf (Value.encode (Value.Int (Array.length t)));
  Array.iter (fun v -> Buffer.add_string buf (Value.encode v)) t;
  Buffer.contents buf

let decode_at s off =
  let header, off = Value.decode s off in
  let n =
    match header with
    (* Every encoded value takes at least 2 bytes: a hostile header
       cannot drive an allocation larger than the input. *)
    | Value.Int n when n >= 0 && n <= (String.length s - off) / 2 -> n
    | Value.Int _ | Value.Str _ | Value.Bool _ ->
      invalid_arg "Tuple.decode: bad arity header"
  in
  let off = ref off in
  let values =
    Array.init n (fun _ ->
        let v, next = Value.decode s !off in
        off := next;
        v)
  in
  (values, !off)

let decode s =
  let values, off = decode_at s 0 in
  if off <> String.length s then invalid_arg "Tuple.decode: trailing bytes";
  values

let pp fmt t =
  Format.fprintf fmt "⟨%s⟩"
    (String.concat ", " (Array.to_list (Array.map Value.to_string t)))
