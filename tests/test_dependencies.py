"""pgsolve has no runtime dependencies beyond the standard library."""

import subprocess
import sys
from pathlib import Path

import pgsolve


def test_import_loads_only_the_standard_library():
    # -I -S: no site-packages, no .pth hooks, no environment; only the
    # directory holding pgsolve is put on the path.
    source = str(Path(pgsolve.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {source!r}); import pgsolve; "
        "print('\\n'.join(sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True
    )
    # A module outside the standard library cannot even be found here.
    assert result.returncode == 0, result.stderr
    top = {name.partition(".")[0] for name in result.stdout.split()}
    assert "pgsolve" in top
    outside = top - set(sys.stdlib_module_names) - {"pgsolve", "__main__"}
    assert not outside, f"pgsolve pulls in non-stdlib modules: {sorted(outside)}"
