(** Filesystem helpers shared by every layer that writes artifacts. *)

val mkdir_p : string -> unit
(** [mkdir_p dir] creates [dir] and any missing parents (mode 0o755).
    A directory created concurrently by another domain or process
    counts as success; any other failure raises [Sys_error]. *)
