let tag_hello = "snic-hello"
let tag_quote = "snic-quote-msg"
let tag_share = "snic-share"
let tag_finished = "snic-finished"

let confirm_label nonce = "key-confirmation|" ^ nonce

let ( let* ) = Result.bind

let expect_tag want fields =
  match fields with
  | tag :: rest when String.equal tag want -> Ok rest
  | tag :: _ -> Error (Printf.sprintf "expected %s message, got %s" want tag)
  | [] -> Error "empty message"

module Verifier = struct
  type t = {
    rng : Random.State.t;
    vendor_public : Crypto.Rsa.public;
    expected : string option;
    nonce : string;
    mutable key : string option;
    mutable peer_measurement : string option;
  }

  let start rng ~vendor_public ?expected_measurement () =
    let nonce = String.init 16 (fun _ -> Char.chr (Random.State.int rng 256)) in
    let t = { rng; vendor_public; expected = expected_measurement; nonce; key = None; peer_measurement = None } in
    (t, Wire.encode [ tag_hello; nonce ])

  let on_quote t bytes =
    let* fields = Wire.decode ~expect:2 bytes in
    let* rest = expect_tag tag_quote fields in
    let* quote = match rest with [ q ] -> Attestation.quote_of_bytes q | _ -> Error "malformed quote message" in
    match
      Attestation.verify t.rng ~vendor_public:t.vendor_public ?expected_measurement:t.expected ~nonce:t.nonce quote
    with
    | Error e -> Error (Attestation.verify_error_to_string e)
    | Ok verified ->
      t.key <- Some verified.Attestation.key;
      t.peer_measurement <- Some verified.Attestation.quote_measurement;
      Ok (Wire.encode [ tag_share; Bigint.to_hex verified.Attestation.verifier_share ])

  let on_finished t bytes =
    let* fields = Wire.decode ~expect:2 bytes in
    let* rest = expect_tag tag_finished fields in
    match (rest, t.key) with
    | [ mac ], Some key ->
      if Crypto.Hmac.verify_at ~tag:mac (Crypto.Hmac.mac ~key (confirm_label t.nonce)) ~pos:0 then Ok ()
      else Error "key confirmation failed (different keys or tampering)"
    | _, None -> Error "FINISHED before QUOTE"
    | _ -> Error "malformed finished message"

  let key t = t.key
  let peer_measurement t = t.peer_measurement
end

module Prover = struct
  type t = {
    rng : Random.State.t;
    attester : Attestation.attester;
    mutable responder : Attestation.responder option;
    mutable nonce : string;
    mutable key : string option;
  }

  let create rng attester = { rng; attester; responder = None; nonce = ""; key = None }

  let on_hello t bytes =
    let* fields = Wire.decode ~expect:2 bytes in
    let* rest = expect_tag tag_hello fields in
    match rest with
    | [ nonce ] ->
      let responder, quote = Attestation.respond t.rng t.attester ~nonce in
      t.responder <- Some responder;
      t.nonce <- nonce;
      Ok (Wire.encode [ tag_quote; Attestation.quote_to_bytes quote ])
    | _ -> Error "malformed hello"

  let on_share t bytes =
    let* fields = Wire.decode ~expect:2 bytes in
    let* rest = expect_tag tag_share fields in
    match (rest, t.responder) with
    | [ share_hex ], Some responder -> begin
      match Bigint.of_hex share_hex with
      | share ->
        let key = Attestation.responder_key responder ~verifier_share:share in
        t.key <- Some key;
        Ok (Wire.encode [ tag_finished; Crypto.Hmac.mac ~key (confirm_label t.nonce) ])
      | exception Invalid_argument _ -> Error "malformed share"
    end
    | _, None -> Error "SHARE before HELLO"
    | _ -> Error "malformed share message"

  let key t = t.key
end

let handshake rng ~vendor_public ?expected_measurement attester =
  let verifier, hello = Verifier.start rng ~vendor_public ?expected_measurement () in
  let prover = Prover.create rng attester in
  let* quote = Prover.on_hello prover hello in
  let* share = Verifier.on_quote verifier quote in
  let* finished = Prover.on_share prover share in
  let* () = Verifier.on_finished verifier finished in
  match (Verifier.key verifier, Prover.key prover) with
  | Some vk, Some pk -> Ok (vk, pk)
  | _ -> Error "handshake completed without keys"
