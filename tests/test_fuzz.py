"""Bounded, derandomized fuzzing of the input boundaries.

Every hex code, circuit document and command line either works or is
rejected with a typed error: `ValueError` from the library, and from
the CLI an exit status in {0, 1, 2} with at most one line on stderr.
The CLI vocabulary keeps every integer small, so no generated command
can ask for a large closure, and it has no file-writing flags.
"""
import contextlib
import io
import string

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sheffer.bitfunc import TruthTable, hex_width
from sheffer.cli import main
from sheffer.closure import circuit_from_json

#: An explicit alphabet: the default one builds the whole Unicode table first.
ASCII = string.printable
FUZZ = settings(derandomize=True, database=None, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

HEX_TEXT = st.text(alphabet="0123456789abcdefABCDEFgx -+_", max_size=18)
ARITIES = st.one_of(st.integers(-2, 8), st.none(), st.booleans(), st.floats(0, 7),
                    st.text(alphabet=ASCII, max_size=2))


@st.composite
def _hex_inputs(draw):
    """(text, arity), mostly with the digit count of the arity, give or take one."""
    arity = draw(st.integers(1, 6))
    width = max(1, hex_width(arity) + draw(st.sampled_from([0, 0, 0, -1, 1])))
    text = draw(st.text(alphabet="0123456789abcdefABCDEF", min_size=width, max_size=width))
    return text, arity


HEX_INPUTS = st.one_of(_hex_inputs(), st.tuples(HEX_TEXT, ARITIES))

def _json_values():
    scalars = st.one_of(st.none(), st.booleans(), st.integers(-3, 70),
                        st.floats(allow_nan=False, allow_infinity=False),
                        st.text(alphabet=ASCII, max_size=6))
    return st.recursive(scalars, lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(alphabet=ASCII, max_size=5), inner, max_size=4)), max_leaves=12)


NODES = st.lists(st.one_of(
    st.fixed_dictionaries({"op": st.just("input"),
                           "var": st.one_of(st.integers(-1, 6), _json_values())}),
    st.fixed_dictionaries({"op": st.sampled_from(["const0", "const1", "const2", "apply"])}),
    st.fixed_dictionaries({"op": st.just("apply"),
                           "args": st.one_of(st.lists(st.integers(-1, 6), max_size=7),
                                             _json_values())}),
    _json_values(),
), max_size=6)


@st.composite
def _plausible_circuits(draw):
    """Circuit documents that are well formed except where a draw says otherwise."""
    arity = draw(st.integers(1, 4))
    width = max(1, (1 << arity) // 4)
    nodes = [{"op": "input", "var": k} for k in range(arity)]
    for i in range(draw(st.integers(0, 4))):
        nodes.append({"op": "apply", "args": draw(st.lists(
            st.integers(-1, len(nodes)), min_size=arity - 1, max_size=arity + 1))})
    return {"generator": draw(st.text(alphabet="0123456789ABCDEF",
                                      min_size=width, max_size=width)),
            "arity": draw(st.sampled_from([arity, arity, arity + 1])),
            "nodes": draw(st.permutations(nodes)) if draw(st.booleans()) else nodes,
            "root": draw(st.integers(-1, len(nodes)))}


CIRCUITS = st.one_of(
    _plausible_circuits(),
    _json_values(),
    st.fixed_dictionaries(
        {"generator": st.one_of(HEX_TEXT, _json_values()),
         "arity": st.one_of(st.integers(0, 7), _json_values()),
         "nodes": st.one_of(NODES, _json_values()),
         "root": st.one_of(st.integers(-1, 6), _json_values())},
        optional={"extra": _json_values()}),
)

COMMANDS = ["classify", "closure", "synth", "mux", "census", "count", "bogus", ""]
FLAGS = ["--gate", "--arity", "--json", "--constants", "--budget", "--target",
         "--select", "--n", "--max-n", "--format", "--help", "-x"]
#: No decimal token exceeds 64, so `--budget` and `--n` stay cheap.
VALUES = ["0", "1", "2", "3", "4", "7", "17", "64", "-1", "2B", "E8", "FFFF",
          "1E8A", "A,B", "csv", "json", "", "x"]
ITEMS = st.lists(st.one_of(st.tuples(st.sampled_from(FLAGS), st.sampled_from(VALUES)),
                           st.tuples(st.sampled_from(FLAGS)),
                           st.tuples(st.sampled_from(VALUES))), max_size=5)
GATES = ["2B", "E8", "7", "b", "1", "FF", "1E8A", "E8E8E8E8", "0F0F0F0F0F0F0F0F", "x"]
SMALL = ["-1", "0", "1", "2", "3", "4", "5", "7", "17", "64", "2.5", "x"]
JSON = st.just(["--json"])
CONSTANTS = st.just(["--constants"])
ARITY = st.tuples(st.just("--arity"), st.sampled_from(SMALL))
#: The required arguments of each command, then the options it takes.
COMMAND_FORMS = [
    (st.tuples(st.just("classify"), st.just("--gate"), st.sampled_from(GATES)),
     [JSON, ARITY]),
    (st.tuples(st.just("closure"), st.just("--gate"), st.sampled_from(GATES)),
     [JSON, ARITY, CONSTANTS, st.tuples(st.just("--budget"), st.sampled_from(SMALL))]),
    (st.tuples(st.just("synth"), st.just("--gate"), st.sampled_from(GATES),
               st.just("--target"), st.sampled_from(GATES)),
     [JSON, ARITY, CONSTANTS]),
    (st.tuples(st.just("mux"), st.just("--gate"), st.sampled_from(GATES), st.just("--select"),
               st.sampled_from(["A", "A,B", "C,D", "a,,b", "Z", "9"])),
     [JSON, ARITY]),
    (st.tuples(st.just("census"), st.just("--n"), st.sampled_from(SMALL)),
     [st.tuples(st.just("--format"), st.sampled_from(["csv", "json", "xml"]))]),
    (st.tuples(st.just("count"), st.sampled_from(["--n", "--max-n"]), st.sampled_from(SMALL)),
     [JSON]),
]


def _argv(head, options):
    return [*head, *(token for option in options for token in option)]


ARGV = st.one_of(
    *(st.builds(_argv, head, st.lists(st.one_of(*options), max_size=3))
      for head, options in COMMAND_FORMS),
    st.builds(_argv, st.tuples(st.sampled_from(COMMANDS)), ITEMS),
)

@settings(FUZZ, max_examples=200)
@given(inputs=HEX_INPUTS)
def test_from_hex_parses_or_raises_value_error(inputs):
    text, arity = inputs
    try:
        tt = TruthTable.from_hex(text, arity)
    except ValueError:
        return
    assert tt.to_hex() == text.upper()


@settings(FUZZ, max_examples=200)
@given(data=CIRCUITS)
def test_circuit_from_json_parses_or_raises_value_error(data):
    try:
        circuit, generator = circuit_from_json(data)
    except ValueError:
        return
    assert circuit.arity == generator.arity


@settings(FUZZ, max_examples=100)
@given(argv=ARGV)
def test_cli_exits_with_a_documented_status(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:  # argparse's --help
            status = exc.code
    assert status in (0, 1, 2), (argv, status)
    assert len(err.getvalue().splitlines()) <= 1, (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()

