"""The golden digest corpus, byte-compared in both engine modes.

``tests/goldens/corpus_*.json`` freeze one result digest per cell (see
:mod:`tests.golden_corpus`).  Every refactor of the scheduler passes,
the device readiness queries or the run loops must leave every digest
unchanged under the next-event engine (``REPRO_FASTFWD=1``) and under
the sequential loop with gates and leaps off (``REPRO_FASTFWD=0``).
The quarter-scale fig7 slice is too slow for tier-1; CI runs it as a
script with the protocol oracle on.
"""

from __future__ import annotations

import pytest

from tests.golden_corpus import drift, load


@pytest.mark.parametrize("fastfwd", ["1", "0"])
@pytest.mark.parametrize("name", ["tier1", "fleet"])
def test_corpus_slice_byte_identical(name, fastfwd, monkeypatch):
    monkeypatch.setenv("REPRO_FASTFWD", fastfwd)
    assert load(name), f"corpus_{name}.json is empty"
    drifted = drift(name)
    assert not drifted, (
        f"{len(drifted)} {name} cells drifted under REPRO_FASTFWD="
        f"{fastfwd}: {drifted[:10]}"
    )
