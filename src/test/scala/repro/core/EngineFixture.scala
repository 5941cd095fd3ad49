package repro.core

import org.apache.spark.sql.DataFrame

import repro.SparkSpec
import repro.attack.AttackDataGen.RawEv
import repro.events.EventSchema

/** Handcrafted micro-trace for engine unit tests: a "data exfiltration"
  * chain on agent 1, a broken (wrong temporal order) copy on agent 2, and a
  * cross-host network link — enough to exercise joins, temporal relations,
  * host-locality, and shortcuts with eyeballable expectations.
  */
trait EngineFixture { self: SparkSpec =>

  val T0: Long = Times.parseMs("08/01/2023")
  val day1 = "2023-08-01"

  private def ev(id: Long, agent: Int, ts: Long, op: String, pid: Long, exe: String,
                 objType: String, objPid: Option[Long] = None, objExe: Option[String] = None,
                 objPath: Option[String] = None, dstIp: Option[String] = None,
                 dstPort: Option[Int] = None, amount: Option[Long] = None): RawEv =
    RawEv(id, agent, T0 + ts, op, pid, exe, objType, objPid, objExe, objPath,
          None, dstIp, None, dstPort, amount, day1)

  lazy val fixtureEvents: Seq[RawEv] = Seq(
    // agent 1: the "real" chain — start < write < read < exfil
    ev(1, 1, 1000, "start", 10, "cmd.exe", "proc", objPid = Some(20), objExe = Some("osql.exe")),
    ev(2, 1, 2000, "write", 20, "osql.exe", "file", objPath = Some("/d/backup.dmp"), amount = Some(100L)),
    ev(3, 1, 3000, "read", 30, "sbblv.exe", "file", objPath = Some("/d/backup.dmp"), amount = Some(100L)),
    ev(4, 1, 4000, "write", 30, "sbblv.exe", "ip", dstIp = Some("9.9.9.9"), dstPort = Some(443), amount = Some(500L)),
    // agent 1: decoys
    ev(5, 1, 1500, "start", 11, "cmd.exe", "proc", objPid = Some(21), objExe = Some("calc.exe")),
    ev(6, 1, 2500, "write", 20, "osql.exe", "file", objPath = Some("/d/other.dmp"), amount = Some(10L)),
    ev(10, 1, 6000, "write", 50, "powershell.exe", "ip", dstIp = Some("9.9.9.9"), dstPort = Some(443), amount = Some(10L)),
    // agent 2: same chain but the write precedes the start (temporal decoy)
    ev(7, 2, 1100, "start", 10, "cmd.exe", "proc", objPid = Some(20), objExe = Some("osql.exe")),
    ev(8, 2, 900, "write", 20, "osql.exe", "file", objPath = Some("/d/backup.dmp"), amount = Some(100L)),
    // agent 2: cross-host link to the same destination ip
    ev(9, 2, 5000, "connect", 40, "bash", "ip", dstIp = Some("9.9.9.9"), dstPort = Some(443)),
  )

  lazy val fixtureDf: DataFrame = {
    import spark.implicits._
    val df = fixtureEvents.toDS().toDF(EventSchema.columns: _*).cache()
    df.count()
    df
  }

  def loader(conf: AiqlConf = AiqlConf()): BaseLoader =
    new BaseLoader(spark, InMemory(fixtureDf), conf)

  def engine(conf: AiqlConf = AiqlConf()): MultiEventEngine =
    new MultiEventEngine(loader(conf), conf)

  def run(src: String, conf: AiqlConf = AiqlConf()): DataFrame =
    Parser.parse(src) match {
      case m: Ast.MultiEventQuery => engine(conf).execute(m)
      case d: Ast.DependencyQuery => engine(conf).execute(DependencyCompiler.compile(d))
      case a: Ast.AnomalyQuery    => new AnomalyEngine(loader(conf)).execute(a)
    }
}
