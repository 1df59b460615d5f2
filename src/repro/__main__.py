"""Entry point for ``python -m repro``.

``net`` goes straight to :mod:`repro.net.cli`: a replica process is started
this way and must not import the figure, bench, DES and check stacks that
:mod:`repro.cli` serves (tests/test_import_budget.py).
"""

import sys

if __name__ == "__main__":
    if sys.argv[1:2] == ["net"]:
        from repro.net.cli import main

        sys.exit(main(sys.argv[2:]))
    from repro.cli import main

    sys.exit(main())
