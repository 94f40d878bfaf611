"""The error raised for input data an analysis cannot run on."""


class DataError(ValueError):
    """Unusable input data: an unparsable file, an empty corpus, too few
    years or points for a fit.  The CLI reports it with exit code 2."""
