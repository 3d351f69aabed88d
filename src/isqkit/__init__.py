"""Engine for jump-based instruction sequences and functional units.

The package splits into a small stack of layers: syntax (`isa`), behaviour
(`threads`), the service environment (`services`, `execution`), functional
units and derived operations (`funit`), concrete units over the naturals
including two universal ones (`natfu`), and exhaustive analysis over finite
state spaces (`finfu`).  `cli` binds everything into the ``isqkit`` command.
"""

from .isa import (
    BasicInstruction,
    BwdJump,
    FwdJump,
    HaltN,
    HaltP,
    NegTest,
    ParseError,
    Plain,
    PosTest,
    Program,
    normalize,
    parse_program,
    render_program,
    repeat_instruction,
)
from .threads import (
    TAU,
    Branch,
    Deadlock,
    LinearSpec,
    Post,
    TermN,
    TermP,
    bisimilar,
    compile_thread,
    extract,
    minimize,
    project,
    tau_contract,
)
from .services import (
    EMPTY_FAMILY,
    EMPTY_SERVICE,
    EmptyService,
    Reply,
    ServiceFamily,
    UnitService,
    compose,
    encapsulate,
    service_step,
    singleton,
)
from .execution import (
    DEFAULT_MODE,
    ExecMode,
    ExecOutcome,
    Status,
    reachable_states,
    run,
)
from .funit import (
    UNDEFINED,
    FunctionalUnit,
    MethodOperation,
    PartialMethodOperation,
    Unknown,
    derived_op,
    inline_compose,
    refute_derivability,
    restrict,
)
from .natfu import counter_unit, decr_n_unit, rm_run, rmlful, univ3_program, univ3_unit, univ_unit
from .finfu import ClosedSet, count_degrees, derived_closure, enumerate_mo, leq_by_closure

__version__ = "0.1.0"
