"""Backwards-compatibility shims: the one place deprecations live.

Every legacy API surface the package still honours funnels through
:func:`deprecated`, so the warning category, the ``stacklevel``
arithmetic, and the message style stay consistent — and
:data:`SHIMS` enumerates every shim left to retire: its legacy
spelling, the replacement the warning names, and the release the shim
is scheduled to disappear in.  ``tests/test_compat.py`` asserts the
table and the emitted warnings agree.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Tuple

#: Default stacklevel: the caller of the shimmed public function.
#: (1 = deprecated(), 2 = the shim itself, 3 = the user's call site.)
_CALLER = 3


@dataclass(frozen=True)
class Shim:
    """One legacy spelling still honoured, and its retirement plan."""

    #: the legacy spelling users may still have in code
    name: str
    #: what the deprecation warning tells them to use instead
    replacement: str
    #: the release this shim is scheduled to be removed in
    remove_in: str


#: Every deprecation shim left in the package.  Each entry corresponds
#: to exactly one ``deprecated(...)`` call site; retiring a shim means
#: deleting both the call site and its row here.  Empty since 0.7: the
#: 0.5 shims (the positional-CostModel ``map_network`` call form, the
#: loose ``soi_domino_map`` keyword switches, the
#: ``MappingResult.tuples_created`` alias) and the 0.7 one (direct
#: ``SoAKernel()`` construction, which is plain construction again)
#: were all removed on schedule.
SHIMS: Tuple[Shim, ...] = ()

def deprecated(message: str, *, remove_in: Optional[str] = None,
               stacklevel: int = _CALLER) -> None:
    """Emit the package-standard :class:`DeprecationWarning`.

    ``message`` should name the legacy spelling and its replacement
    ("X is deprecated; use Y instead"); ``remove_in`` appends the
    scheduled removal release, matching the shim's :data:`SHIMS` row.
    ``stacklevel`` defaults to the user's call site when called directly
    from a shim function; property shims (one frame shallower) pass
    ``stacklevel=2``.
    """
    if remove_in is not None:
        message = f"{message} (scheduled for removal in {remove_in})"
    warnings.warn(message, DeprecationWarning, stacklevel=stacklevel)
