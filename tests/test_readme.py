"""The README states the package's contract: public names, errors, tolerance
rules, the CLI and the scripts.  Private machinery is described in the
docstrings of the code it belongs to, not there."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def private_names(text: str) -> list[str]:
    """Names with exactly one leading underscore (``_spectrum``,
    ``core._smat``) inside backticks, fenced blocks included.  A name
    starts a span or follows a space, a dot or an opening bracket, and a
    letter follows its underscore: dunders such as ``__version__`` are
    public, and ``A<i>_norm`` is a column, not a name."""
    spans = re.findall(r"`+([^`]+)`+", text)
    return sorted({m for span in spans for m in re.findall(r"(?<![^\s.(\[])_[A-Za-z]\w*", span)})


def test_private_names_are_found():
    text = ("`core._spectrum`, `_Stack` and\n`f(_batch,\n  x)` but not `__version__`, "
            "`t_end`, `A<i>_norm`, `..._13_curvature` or _emphasis_")
    assert private_names(text) == ["_Stack", "_batch", "_spectrum"]


def test_readme_names_no_private_identifier():
    assert private_names(README.read_text(encoding="utf-8")) == []
