open Secmed_bigint
open Secmed_crypto
open Secmed_relalg
open Secmed_mediation

type 'a t = {
  size : 'a -> int;
  write : Wire.writer -> 'a -> unit;
  read : Wire.reader -> 'a;
  malformed : 'a -> 'a;
}

let hybrid =
  {
    size = Hybrid.size;
    write = (fun w ct -> Wire.write_raw w (Hybrid.to_wire ct));
    read = (fun r -> Wire.read_at r Hybrid.of_wire_at);
    malformed = (fun ct -> Hybrid.of_wire (Fault.flip_tail (Hybrid.to_wire ct)));
  }

let none = { size = (fun () -> 0); write = (fun _ () -> ()); read = ignore; malformed = Fun.id }

let pair a b =
  {
    size = (fun (x, y) -> a.size x + b.size y);
    write =
      (fun w (x, y) ->
        a.write w x;
        b.write w y);
    read =
      (fun r ->
        let x = a.read r in
        (x, b.read r));
    malformed = (fun (x, y) -> (a.malformed x, b.malformed y));
  }

let tuples =
  {
    size = List.fold_left (fun acc t -> acc + 4 + String.length (Tuple.encode t)) 4;
    write = (fun w ts -> Wire.write_list w (fun t -> Wire.write_string w (Tuple.encode t)) ts);
    read = (fun r -> Wire.read_list r (fun () -> Tuple.decode (Wire.read_string r)));
    malformed = Fun.id;
  }

(* A group element at the group's fixed byte width. *)
let point group =
  let width = (group.Group.bits + 7) / 8 in
  {
    size = (fun _ -> width);
    write = (fun w h -> Wire.write_raw w (Bigint.to_bytes_be_padded width h));
    read = (fun r -> Bigint.of_bytes_be (Wire.read_raw r width));
    malformed = Fun.id;
  }

let encode codec v =
  let w = Wire.writer () in
  codec.write w v;
  Wire.contents w

let decode codec blob =
  let r = Wire.reader blob in
  let v = codec.read r in
  Wire.expect_end r;
  v

let decode_all codec blob =
  let r = Wire.reader blob in
  Wire.read_rest r (fun () -> codec.read r)

let exchange link ~phase ~sender ~receiver ~label ?guard codec value =
  Link.exchange link ~phase ~sender ~receiver ~label ?guard ~size:codec.size
    ~encode:(encode codec) ~decode:(decode codec) value

let exchange_list link ~phase ~sender ~receiver ~label codec value =
  Link.exchange_rows link ~phase ~sender ~receiver ~label
    ~size:(List.fold_left (fun acc v -> acc + codec.size v) 0)
    ~rows:(List.map (encode codec)) ~decode:(decode_all codec) value

