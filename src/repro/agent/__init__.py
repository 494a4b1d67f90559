"""``repro.agent`` — the ECA Agent mediator (the paper's contribution).

The agent sits between clients and the (passive) SQL server and provides
full active-database capability — named primitive events, Snoop composite
events, multiple triggers per event, all four parameter contexts, the
three coupling modes, persistence and recovery — without modifying either
the server or the clients (paper Figures 1 and 2).

Assembly::

    from repro.sqlengine import SqlServer
    from repro.agent import EcaAgent

    server = SqlServer(default_database="sentineldb")
    agent = EcaAgent(server)
    conn = agent.connect(user="sharma", database="sentineldb")
    conn.execute("create table stock (symbol varchar(10), price float)")
    conn.execute(
        'create trigger t_addStk on stock for insert event addStk '
        'as print "stock added"'
    )
    conn.execute("insert stock values ('IBM', 101.5)")   # -> "stock added"
"""

from repro.obs.tracing import PipelineTrace

from .action_handler import ActionHandler
from .admin import AgentAdmin
from .agent import EcaAgent
from .eca_parser import EcaCommand, LanguageFilter, parse_eca_command
from .errors import (
    AgentError,
    EcaSyntaxError,
    NameError_,
    PersistenceError,
    RecoveryError,
)
from .gateway import GatewayOpenServer
from .messages import Notification, NotiStr
from .model import CompositeEventDef, EcaTriggerDef, PrimitiveEventDef
from .naming import expand_name, internal_name, split_internal
from .notifier import (
    EventNotifier,
    NotificationChannel,
    SynchronousChannel,
    ThreadedChannel,
    UdpChannel,
)
from .persistence import PersistentManager

__all__ = [
    "ActionHandler",
    "AgentAdmin",
    "AgentError",
    "CompositeEventDef",
    "EcaAgent",
    "EcaCommand",
    "EcaSyntaxError",
    "EcaTriggerDef",
    "EventNotifier",
    "GatewayOpenServer",
    "LanguageFilter",
    "NameError_",
    "Notification",
    "NotiStr",
    "NotificationChannel",
    "PersistenceError",
    "PersistentManager",
    "RecoveryError",
    "PipelineTrace",
    "PrimitiveEventDef",
    "SynchronousChannel",
    "ThreadedChannel",
    "UdpChannel",
    "expand_name",
    "internal_name",
    "parse_eca_command",
    "split_internal",
]
