"""Exception types shared across the package."""


class HypothesisError(RuntimeError):
    """A numerical hypothesis required by a bound or construction failed.

    The message names the failed condition (rank preservation, noise
    smallness, consistency of the noisy system, ...) so callers can
    report exactly what broke.  The command-line front end maps this to
    exit code 2, as opposed to configuration errors (exit code 1).
    """


class KernelBuildError(OSError):
    """The compiled kernel library could not be built.

    Raised at the first solve or the first file read or write when no C
    compiler is on ``PATH``, the build fails (the message shows the
    compiler command), or the cache location cannot be written or the
    library loaded (the message names the library path).  The
    command-line front end reports it as a kernel build error, exit
    code 1.
    """
