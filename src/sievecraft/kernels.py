"""Backend selection for the hot kernels.

The compiled Cython extension is used when available; set
SIEVECRAFT_KERNEL=py to force the pure Python/numpy fallback, or
SIEVECRAFT_KERNEL=cy to require the extension (ImportError if missing).
"""

from __future__ import annotations

import os

from . import _kernels_py

prime_sieve = _kernels_py.prime_sieve
roots_mod_primes = _kernels_py.roots_mod_primes
value_square_blocks = _kernels_py.value_square_blocks
form_square_blocks = _kernels_py.form_square_blocks
form_values = _kernels_py.form_values

_choice = os.environ.get("SIEVECRAFT_KERNEL", "auto")
if _choice == "py":
    _impl = _kernels_py
    BACKEND = "py"
else:
    try:
        from . import _kernels_cy as _impl  # type: ignore[attr-defined]

        BACKEND = "cy"
    except ImportError:
        if _choice == "cy":
            raise
        _impl = _kernels_py
        BACKEND = "py"

squarefree_mask = _impl.squarefree_mask
poly_roots_mod_p = _impl.poly_roots_mod_p
value_square_profile = _impl.value_square_profile
