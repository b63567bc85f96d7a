"""One module per subcommand of the command-line front end.

`cli.main` imports only the module of the command it runs.  Each module
defines `add_arguments(parser)`, the command's own arguments, and
`run(args)`, which returns the run's tables, its JSON payload and its exit
code.  A handler imports the layer functions it calls when it runs, from
their home modules, so a function rebound there (by a test, or by the
benchmark's tracer) is the one it calls.  `_words` is no command: it holds
the `--words` option that `product`, `lmovable` and `horn-check` share.
"""
