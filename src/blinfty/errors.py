"""Exception types shared across the package."""


class BlinftyError(Exception):
    pass


class StructureError(BlinftyError):
    """A structure identity or a consistency condition on the inputs failed."""


class IncompleteTableError(BlinftyError):
    """A gluing reached outside a table's declared completeness bounds."""

    def __init__(self, k, word=None):
        self.k = k
        self.word = word
        super().__init__("table incomplete: query at k=%d%s" %
                         (k, "" if word is None else " on %r" % (word,)))


class InternalInconsistencyError(BlinftyError):
    """A paper-guaranteed identity failed; signals a bad input or bound leak."""


class PlanarityZeroError(BlinftyError):
    """Order requested without any augmentation."""


class PlanarityNotOneError(BlinftyError):
    """Semi-dilation undefined: no homology class hits the functional value 1."""


class NotNilpotentError(BlinftyError):
    """The U endomorphism is not nilpotent within the declared power bound."""


class InconsistentInputsError(BlinftyError):
    """Mutually contradictory hierarchy inputs (finite torsion with augmentation)."""


class InconclusiveError(BlinftyError):
    """The question cannot be settled within the supplied data or bounds."""


class ParseError(BlinftyError):
    def __init__(self, line_no, message):
        self.line_no = line_no
        super().__init__("line %d: %s" % (line_no, message))
