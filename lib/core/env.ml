open Secmed_crypto
open Secmed_relalg
open Secmed_mediation

type params = { group_bits : int; paillier_bits : int }

let default_params = { group_bits = 256; paillier_bits = 768 }

type source = {
  source_id : int;
  relations : (string * Relation.t) list;
  policy : Policy.t;
  advertised : string list;
}

type client = {
  identity : string;
  key : Elgamal.private_key;
  credentials : Credential.t list;
  paillier_key : Paillier.private_key;
}

type t = {
  params : params;
  group : Group.t;
  ca : Credential.Authority.ca;
  catalog : Catalog.t;
  sources : source list;
  master_prng : Prng.t;
}

let make ?(params = default_params) ?(seed = 0) ~catalog ~sources () =
  let master_prng = Prng.of_int_seed seed in
  let group = Group.default ~bits:params.group_bits in
  let ca = Credential.Authority.create (Prng.split master_prng "ca") group in
  { params; group; ca; catalog; sources; master_prng }

let prng_for t label = Prng.split t.master_prng label

let make_client t ~identity ~properties =
  let prng = prng_for t ("client-" ^ identity) in
  let key = Elgamal.keygen prng t.group in
  let ca_prng = prng_for t ("ca-issue-" ^ identity) in
  let credentials =
    List.map
      (fun props ->
        Credential.Authority.issue t.ca ca_prng ~properties:props (Elgamal.public key))
      properties
  in
  let paillier_key =
    Paillier.keygen (Prng.split prng "paillier") ~bits:t.params.paillier_bits
  in
  { identity; key; credentials; paillier_key }

let source_by_id t id = List.find (fun s -> s.source_id = id) t.sources

let view t party =
  let keep s = Transcript.party_equal party (Source s.source_id) in
  { t with sources = List.map (fun s -> if keep s then s else { s with relations = [] }) t.sources }

let two_source ?params ?seed ~left:(left_name, left_rel) ~right:(right_name, right_rel) () =
  let entry relation source rel =
    {
      Catalog.relation;
      source;
      schema = Relation.schema rel;
      source_relation = relation;
    }
  in
  let catalog = Catalog.make [ entry left_name 1 left_rel; entry right_name 2 right_rel ] in
  let sources =
    [
      {
        source_id = 1;
        relations = [ (left_name, left_rel) ];
        policy = Policy.open_policy;
        advertised = [];
      };
      {
        source_id = 2;
        relations = [ (right_name, right_rel) ];
        policy = Policy.open_policy;
        advertised = [];
      };
    ]
  in
  make ?params ?seed ~catalog ~sources ()
