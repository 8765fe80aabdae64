"""Exception hierarchy shared across the analyzer."""


class AnalysisError(Exception):
    """Base class for every error this package raises on purpose."""


class MissingManifest(AnalysisError):
    pass


class MalformedManifest(AnalysisError):
    pass


class DuplicateClass(AnalysisError):
    pass


class RTableSyntaxError(AnalysisError):
    pass


class XmlSyntaxError(AnalysisError):
    pass


class IrSyntaxError(AnalysisError):
    """Syntax error in a code unit, with a file:line:col location."""

    def __init__(self, message, file="<unit>", line=0, col=0):
        super().__init__(f"{file}:{line}:{col}: {message}")
        self.message = message
        self.file = file
        self.line = line
        self.col = col


class LexiconSyntaxError(AnalysisError):
    pass


class DuplicateTerm(AnalysisError):
    pass


class SinkSyntaxError(AnalysisError):
    pass


class BadPosition(AnalysisError):
    pass


class WidgetSyntaxError(AnalysisError):
    pass


class InvalidSpec(AnalysisError):
    """A fixture generation spec with impossible or missing parameters."""


class ReportError(AnalysisError):
    """A report file that aggregate or explain cannot read."""


class EmptyCorpus(AnalysisError):
    pass


class BadEnvironment(AnalysisError):
    """An environment variable set to a value the analyzer cannot use."""


class UsageError(AnalysisError):
    """A command-line option with a value the command cannot use."""
