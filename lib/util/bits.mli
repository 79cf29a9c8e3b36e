(** Immutable bitstrings with exact length accounting.

    Labels in the DIP model are bitstrings; the proof size of a protocol is
    the length in bits of the longest label the honest prover assigns.  This
    module provides a writer/reader pair so every protocol serializes its
    labels and the harness can measure their true size. *)

type t
(** A bitstring.  Equality and comparison are structural. *)

val empty : t

val length : t -> int
(** Number of bits. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val append : t -> t -> t

val concat : t list -> t

val of_bool : bool -> t

val of_int : width:int -> int -> t
(** [of_int ~width v] is the [width]-bit big-endian encoding of [v].
    Requires [0 <= v < 2^width] and [0 <= width <= 62]. *)

val to_int : t -> int
(** Inverse of {!of_int}; requires [length <= 62]. *)

val get : t -> int -> bool
(** [get t i] is bit [i] (0-based from the start).  Raises
    [Invalid_argument] naming the index and length when out of range. *)

val sub : t -> pos:int -> len:int -> t
(** [sub t ~pos ~len] is bits [pos .. pos+len-1].  Raises
    [Invalid_argument] naming the offending slice and the length when
    the range is invalid. *)

val unsafe_sub : t -> pos:int -> len:int -> t
(** {!sub} without the range check.  Reserved for call sites the
    [refine-index] pass of dipp-lint has proved in-bounds — any call
    site the pass cannot verify is a lint finding.  Out-of-range reads
    return garbage (the zero tail of the backing buffer) rather than
    raising. *)

val read_int : t -> pos:int -> width:int -> int
(** [read_int t ~pos ~width] is [to_int (sub t ~pos ~len:width)] without
    building the slice.  Raises [Invalid_argument] naming the offending
    slice and the length when [pos, pos+width) is out of range or
    [width > 62] (same shape as the {!sub} message). *)

val unsafe_int : t -> pos:int -> width:int -> int
(** {!read_int} without the range check.  Reserved for call sites the
    [refine-index] pass of dipp-lint has proved in-bounds — any call site
    the pass cannot verify is a lint finding.  Out-of-range positions read
    garbage or crash rather than raising. *)

val random : Rng.t -> int -> t
(** [random rng len] draws [len] uniform bits. *)

val to_string : t -> string
(** ['0'/'1'] rendering, for debugging and tests. *)

val of_string : string -> t
(** Inverse of {!to_string}; raises [Invalid_argument] on other chars. *)

val pp : Format.formatter -> t -> unit

val to_bytes : t -> bytes
(** The packed byte image (bit [i] in byte [i/8], mask [1 lsl (i mod 8)];
    unused tail bits zero).  With {!length}, a lossless binary form — the
    transcript codec stores bitstrings this way. *)

val of_bytes : len:int -> bytes -> t
(** Inverse of {!to_bytes}.  Raises [Invalid_argument] if the byte count
    does not match [len]; tail bits beyond [len] are zeroed. *)

(** Label encoder: appends fields into one growable byte buffer, so a
    label costs one buffer and one copy rather than a bitstring per field.
    Every protocol serializes each label round through it. *)
module Writer : sig
  type bits := t
  type t

  val create : ?capacity:int -> unit -> t
  (** [capacity] (default 64) preallocates that many bits.  The buffer
      grows by doubling if exceeded, so it is a sizing hint, not a limit:
      pass the protocol's registry envelope (see [Bounds]) to a
      reset-reused writer and it never pays the grow ladder. *)

  val reset : t -> unit
  (** Rewind to empty for buffer reuse; O(1), no zero-fill. *)

  val bool : t -> bool -> unit

  val int : t -> width:int -> int -> unit
  (** Same contract as {!of_int}: requires [0 <= v < 2^width] and
      [0 <= width <= 62]; raises [Invalid_argument] otherwise. *)

  val bits : t -> bits -> unit
  (** Append an existing bitstring. *)

  val length : t -> int
  (** Bits written since creation or the last {!reset}. *)

  val contents : t -> bits
  (** Snapshot the written prefix as an immutable bitstring (copies). *)
end

(** Label decoder: a bit cursor over a bitstring's backing bytes. *)
module Reader : sig
  type bits := t
  type t

  val of_bits : bits -> t
  val bool : t -> bool
  val int : t -> width:int -> int
  val bits : t -> len:int -> bits
  val remaining : t -> int

  exception Underflow
  (** Raised when reading past the end — i.e. a malformed label.  Verifiers
      treat this as a rejection.  A negative or over-62-bit field width
      raises [Invalid_argument]. *)
end
