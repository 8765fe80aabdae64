"""Exception hierarchy shared across the analyzer."""


class AnalysisError(Exception):
    """Base class for every error this package raises on purpose."""


class BundleError(AnalysisError):
    """A problem with the files that make up an app bundle."""


class MissingManifest(BundleError):
    pass


class MalformedManifest(BundleError):
    pass


class DuplicateClass(BundleError):
    pass


class RTableSyntaxError(BundleError):
    pass


class XmlSyntaxError(BundleError):
    pass


class IrSyntaxError(BundleError):
    """Syntax error in a code unit, with a file:line:col location."""

    def __init__(self, message, file="<unit>", line=0, col=0):
        super().__init__(f"{file}:{line}:{col}: {message}")
        self.message = message
        self.file = file
        self.line = line
        self.col = col


class ConfigError(AnalysisError):
    """A problem with a lexicon, sink registry or widget registry file."""


class LexiconSyntaxError(ConfigError):
    pass


class DuplicateTerm(ConfigError):
    pass


class SinkSyntaxError(ConfigError):
    pass


class BadPosition(ConfigError):
    pass


class WidgetSyntaxError(ConfigError):
    pass


class InvalidSpec(ConfigError):
    """A fixture generation spec with impossible or missing parameters."""


class ReportError(AnalysisError):
    """A report file that aggregate or explain cannot read."""


class EmptyCorpus(AnalysisError):
    pass


class BadEnvironment(AnalysisError):
    """An environment variable set to a value the analyzer cannot use."""


class UsageError(AnalysisError):
    """A command-line option with a value the command cannot use."""
