(** The [.erd] relation linter: the loader's own pass, run with a
    findings sink ({!Erm.Io.scan}).

    Where {!Erm.Io.load} raises at the first rejection, the linter
    reports every one as a positioned {!Diagnostic.t}, with the E-code
    of the rule it broke: structural defects (declarations, domains,
    arity, definite values; E001 and E003–E007), evidence cells that do
    not parse (E008), do not normalize within the float tolerance
    (E009), give mass to ∅ (E010), carry a negative mass (E011) or leave
    the declared domain (E012), duplicate keys (E013), malformed or
    out-of-range membership pairs (E014–E015) and CWA_ER-inadmissible
    [sn = 0] tuples (E016). Three findings the loader accepts are
    warnings: a relation name declared twice (E002), and, computed from
    the entries of each evidence cell as written, zero masses it drops
    (E019) and repeated focal elements it sums (E020).

    The linter reports an error exactly when the loader rejects the
    text: both are the same pass. *)

val lint_string : ?file:string -> string -> Diagnostic.t list
(** Lints [.erd] source text. [file] tags the diagnostics' positions. *)

val lint_file : string -> Diagnostic.t list
(** Reads and lints a file; an unreadable file yields a single [E017]
    error rather than an exception. *)
