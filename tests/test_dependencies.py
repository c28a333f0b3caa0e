import json
import os
import subprocess
import sys

import stringalg

# Imports every stringalg module in an interpreter without site-packages
# and prints the names of all modules then loaded.
_SCRIPT = """
import importlib, json, pkgutil, sys
sys.path.insert(0, sys.argv[1])
import stringalg
for info in pkgutil.iter_modules(stringalg.__path__):
    importlib.import_module("stringalg." + info.name)
print(json.dumps(sorted(sys.modules)))
"""


def test_package_imports_only_the_standard_library():
    src = os.path.dirname(os.path.dirname(stringalg.__file__))
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", _SCRIPT, src], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert {"stringalg.cli", "stringalg.classify", "stringalg.oracle"} <= set(loaded)
    top_level = {name.split(".")[0] for name in loaded}
    assert top_level - set(sys.stdlib_module_names) - {"stringalg", "__main__"} == set()
