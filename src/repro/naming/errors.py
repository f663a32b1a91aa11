"""Exceptions raised by the naming and binding service."""


class NamingError(Exception):
    """Base class for naming-service errors."""


class UnknownObject(NamingError):
    """No entry exists for the requested UID."""


class NotQuiescent(NamingError):
    """Insert refused: the object is currently in use.

    The paper (section 4.1.2): a recovering server node re-executes
    ``Insert`` before serving again, and the operation "will only
    succeed when there are no clients using A" -- membership of ``Sv``
    must not change under active users.
    """
